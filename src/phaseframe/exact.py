"""Exact reconstruction from oversampled phase circles (N > M).

For states supported on modes 0..M with N > M samples, the wave function is
recovered exactly by the discrete sinc-type kernel

    Xi_k(z) = (1/N) e^{(p - |z|^2)/2} sum_{m=0}^{M} w^m,   w = conj(z) z_k / p,

and the coefficients by a filtered DFT of the samples,

    a_m = (1/sqrt(N lam_m)) sum_k e^{2 pi i k m / N} Psi(z_k).

Both operations follow the sklearn estimator conventions: hyperparameters in
__init__, data work in fit/transform/predict.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ._validation import check_finite, check_fitted, check_order
from .fock import FockVector, PhaseGrid, evaluate, grid_samples, scale_by_exp
from .spectral import log_mode_weight, resolve_series_tol

__all__ = ["ExactReconstructor"]


def _geometric_sum(w: np.ndarray, M: int) -> np.ndarray:
    """sum_{m=0}^{M} w^m with the removable singularity at w = 1 handled by
    direct summation."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    out = np.empty(w.shape, dtype=complex)
    near = np.abs(w - 1.0) < 1e-8
    if np.any(~near):
        wf = w[~near]
        out[~near] = (wf ** (M + 1) - 1.0) / (wf - 1.0)
    if np.any(near):
        wn = w[near]
        powers = wn[:, None] ** np.arange(M + 1)[None, :]
        out[near] = powers.sum(axis=1)
    return out


def dft_recover(values: np.ndarray, logw: np.ndarray) -> np.ndarray:
    """a_m = (N lam_m)^{-1/2} sum_k e^{2 pi i k m / N} Psi_k for m < len(logw).

    One inverse FFT along the last axis of `values` (a sample vector or a
    stack of them) and one log-space scaling by -(log N + log lam_m)/2.
    """
    N = values.shape[-1]
    if np.any(logw < math.log(1e-300) + math.log(N)):
        warnings.warn(
            "mode weights below 1e-300*N: recovered top coefficients are "
            "dominated by double-precision sample rounding",
            RuntimeWarning,
            stacklevel=3,
        )
    S = N * np.fft.ifft(values, axis=-1)[..., : len(logw)]
    out = scale_by_exp(S, -0.5 * (math.log(N) + logw))
    return check_finite(out, "coefficients")


class ExactReconstructor:
    """Recover a mode-limited state from N > M phase samples.

    Parameters
    ----------
    N : grid size (number of phase samples).
    p : squared circle radius / mean particle number.
    M : largest active mode; must satisfy M < N.
    series_tol : optional override for the spectral series tolerance.
    """

    def __init__(self, N=None, p=None, M=None, series_tol=None):
        self.N = N
        self.p = p
        self.M = M
        self.series_tol = series_tol
        self.coef_ = None
        self.samples_ = None

    # -- estimator plumbing -------------------------------------------------

    def get_params(self, deep: bool = True) -> dict:
        return {"N": self.N, "p": self.p, "M": self.M, "series_tol": self.series_tol}

    def set_params(self, **params) -> "ExactReconstructor":
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for ExactReconstructor")
            setattr(self, key, value)
        self.coef_ = None
        self.samples_ = None
        return self

    def _context(self):
        grid = PhaseGrid(self.N, self.p)
        M = check_order(self.M, "M")
        if M >= grid.N:
            raise ValueError(
                f"exact mode needs strict oversampling: M = {M} must be < N = {grid.N}"
            )
        resolve_series_tol(self.series_tol)
        logw = log_mode_weight(np.arange(M + 1), grid.p, grid.N)
        return grid, M, logw

    # -- data interface -----------------------------------------------------

    def fit(self, X, y=None) -> "ExactReconstructor":
        """Store samples and recover the coefficient vector."""
        grid, _, logw = self._context()
        values = grid_samples(X, grid)
        self.coef_ = dft_recover(values, logw)
        self.samples_ = values
        return self

    def transform(self, X) -> np.ndarray:
        """Coefficient rows for one sample vector or a stack of them."""
        grid, _, logw = self._context()
        return dft_recover(grid_samples(X, grid, stack=True), logw)

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X).coef_[None, :]

    def predict(self, z):
        """Evaluate the fitted state's wave function at z (scalar or array)."""
        check_fitted(self, "coef_")
        return evaluate(FockVector(self.coef_), z)

    # -- reconstruction contract ---------------------------------------------

    def state(self) -> FockVector:
        check_fitted(self, "coef_")
        return FockVector(self.coef_)

    def sinc_kernel(self, k: int, z):
        """Kernel Xi_k(z); Xi_k(z_l) = delta_kl at critical sampling N = M+1."""
        grid, M, _ = self._context()
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        w = zs.conjugate() * grid.point(k) / grid.p
        pref = 0.5 * (grid.p - np.abs(zs) ** 2) - math.log(grid.N)
        out = scale_by_exp(_geometric_sum(w, M), pref)
        if np.ndim(z) == 0:
            return complex(out[0])
        return out

    def reconstruct(self, X, z):
        """Kernel-route reconstruction sum_k Xi_k(z) Psi_k.

        Mathematically identical to evaluating the recovered coefficients,
        but computed directly from the samples.
        """
        grid, M, _ = self._context()
        values = grid_samples(X, grid)
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        zk = grid.points()
        out = np.empty(zs.shape, dtype=complex)
        for idx in range(zs.size):
            zz = complex(zs.flat[idx])
            w = zz.conjugate() * zk / grid.p
            s = np.dot(_geometric_sum(w, M), values)
            pref = 0.5 * (grid.p - abs(zz) ** 2) - math.log(grid.N)
            out.flat[idx] = scale_by_exp(s, pref)
        if np.ndim(z) == 0:
            return complex(out[0])
        return out

    def dft_coefficients(self, X) -> FockVector:
        """Coefficients a_m = (N lam_m)^{-1/2} sum_k e^{2 pi i k m / N} Psi_k."""
        grid, _, logw = self._context()
        return FockVector(dft_recover(grid_samples(X, grid), logw))

    def range_projector(self) -> np.ndarray:
        """N x N matrix P_{lk} = Xi_k(z_l) = (1/N) sum_{m<=M} e^{2 pi i (k-l) m/N}.

        Orthogonal projector onto the sample vectors reachable from modes
        0..M; rank and trace equal M+1.  P is circulant, so its first column
        (the FFT of the in-band indicator, over N) fills the whole matrix.
        """
        grid, M, _ = self._context()
        N = grid.N
        column = np.fft.fft(np.arange(N) <= M) / N
        k = np.arange(N)
        return column[np.mod(k[:, None] - k[None, :], N)]

    def resample(self) -> np.ndarray:
        """Values of the fitted state on the grid (identity when fitted from
        consistent samples): the circulant P applied as FFT, in-band mask,
        inverse FFT."""
        check_fitted(self, "samples_")
        _, M, _ = self._context()
        in_band = np.arange(len(self.samples_)) <= M
        return np.fft.fft(np.fft.ifft(self.samples_) * in_band)
