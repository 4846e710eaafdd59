"""Exact reconstruction from oversampled phase circles (N > M).

For states supported on modes 0..M with N > M samples, the coefficients are
a filtered DFT of the samples, a_m = S_m / sqrt(N lam_m) with
S_m = sum_k e^{2 pi i k m / N} Psi(z_k), and the wave function anywhere in
the plane is sum_k Xi_k(z) Psi_k with the discrete sinc-type kernel

    Xi_k(z) = (1/N) e^{(p - |z|^2)/2} sum_{m=0}^{M} w^m,   w = conj(z) z_k / p.

Off the grid both kernel routes are one series in w0 = conj(z)/sqrt(p):
sum_k Xi_k(z) Psi_k has the terms w0^m S_m, and Xi_k(z) the terms
w0^m e^{2 pi i k m / N}.  `kernel_series` sums it for all points at once
through `fock.series_at`, the chunked log-space series `evaluate` uses too.

Both operations follow the sklearn estimator conventions: hyperparameters in
__init__, data work in fit/transform/predict.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ._validation import check_finite, check_fitted, check_order
from .fock import _LOG_TINY, FockVector, PhaseGrid, evaluate, grid_samples
from .fock import scale_by_exp, series_at
from .spectral import SpectralData

__all__ = ["ExactReconstructor"]


def kernel_series(grid: PhaseGrid, z, log_c: np.ndarray, weights: np.ndarray):
    """(1/N) e^{(p-|z|^2)/2} sum_m exp(log_c_m) w0^m weights_m with
    w0 = conj(z)/sqrt(p): the off-grid form of both interpolation kernels."""
    return series_at(
        z, log_c, weights, 1.0 / math.sqrt(grid.p), 0.5 * grid.p - math.log(grid.N)
    )


def unit_row(N: int, k: int) -> np.ndarray:
    """e^{2 pi i k j / N} for j = 0..N-1, with k*j reduced mod N first."""
    return np.exp(2j * np.pi * np.mod(int(k) * np.arange(N), N) / N)


def recover(values: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """c_n = exp(log_scale_n) S_{n mod N} for n < len(log_scale), where
    S_j = sum_k e^{2 pi i k j / N} Psi_k.

    Both reconstructions are this kernel with their own per-mode scale: one
    inverse FFT along the last axis of `values` (a sample vector or a stack
    of them) and one log-space scaling.  Columns past the last n with
    log_scale_n + log max|S| >= _LOG_TINY underflow to zero; they are filled
    with S_j * exp(-inf), which has the same signed zeros, not computed.
    """
    N = values.shape[-1]
    S = N * np.fft.ifft(values, axis=-1)
    j = np.mod(np.arange(len(log_scale)), N)
    with np.errstate(divide="ignore"):
        log_peak = np.log(np.max(np.abs(S)))
    # a NaN or inf in S keeps every column, so the finite check sees it
    live = np.flatnonzero(~(log_scale + log_peak < _LOG_TINY))
    K = live[-1] + 1 if live.size else 0
    out = scale_by_exp(S[..., j[:K]], log_scale[:K])
    if K < len(j):
        out = np.concatenate([out, scale_by_exp(S, -np.inf)[..., j[K:]]], axis=-1)
    return check_finite(out, "coefficients")


def dft_log_scale(plan: SpectralData) -> np.ndarray:
    """-(log N + log lam_m)/2 for m = 0..n_max: the oversampled recovery
    a_m = (N lam_m)^{-1/2} sum_k e^{2 pi i k m / N} Psi_k."""
    N, logw = plan.grid.N, plan.log_weights
    if np.any(logw < math.log(1e-300) + math.log(N)):
        warnings.warn(
            "mode weights below 1e-300*N: recovered top coefficients are "
            "dominated by double-precision sample rounding",
            RuntimeWarning,
            stacklevel=3,
        )
    return -0.5 * (math.log(N) + logw)


class _Reconstructor:
    """Estimator plumbing shared by both reconstructors.

    Hyperparameters live in __init__ and are listed in `_params`.  Each
    subclass supplies its plan (`_plan`, one SpectralData per public call)
    and its per-mode log scale (`_log_scale`); its coefficients are
    `recover(samples, log_scale)`.
    """

    _params: tuple[str, ...] = ()

    def get_params(self, deep: bool = True) -> dict:
        return {key: getattr(self, key) for key in self._params}

    def set_params(self, **params):
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for {type(self).__name__}"
                )
            setattr(self, key, value)
        self.coef_ = None
        self.samples_ = None
        return self

    def _band_plan(self, M, message: str) -> SpectralData:
        """Plan of modes 0..M, where M (default N - 1) must lie below N;
        `message` is formatted with M and N when it does not."""
        grid = PhaseGrid(self.N, self.p)
        M = grid.N - 1 if M is None else check_order(M, "M")
        if M >= grid.N:
            raise ValueError(message.format(M=M, N=grid.N))
        return SpectralData.build(grid, M)

    def fit(self, X, y=None):
        """Store the samples and recover the coefficient vector."""
        plan = self._plan()
        values = grid_samples(X, plan.grid)
        self.coef_ = recover(values, self._log_scale(plan))
        self.samples_ = values
        return self

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X).coef_[None, :]

    def state(self) -> FockVector:
        check_fitted(self, "coef_")
        return FockVector(self.coef_)


class ExactReconstructor(_Reconstructor):
    """Recover a mode-limited state from N > M phase samples.

    Parameters
    ----------
    N : grid size (number of phase samples).
    p : squared circle radius / mean particle number.
    M : largest active mode; must satisfy M < N.
    """

    _params = ("N", "p", "M")

    def __init__(self, N=None, p=None, M=None):
        self.N = N
        self.p = p
        self.M = M
        self.coef_ = None
        self.samples_ = None

    def _plan(self) -> SpectralData:
        # checked here because M, unlike the filter order, has no default
        return self._band_plan(
            check_order(self.M, "M"),
            "exact mode needs strict oversampling: M = {M} must be < N = {N}",
        )

    _log_scale = staticmethod(dft_log_scale)

    def transform(self, X) -> np.ndarray:
        """Coefficient rows for one sample vector or a stack of them."""
        plan = self._plan()
        return recover(grid_samples(X, plan.grid, stack=True), self._log_scale(plan))

    def predict(self, z):
        """Evaluate the fitted state's wave function at z (scalar or array)."""
        return evaluate(self.state(), z)

    def sinc_kernel(self, k: int, z):
        """Kernel Xi_k(z); Xi_k(z_l) = delta_kl at critical sampling N = M+1."""
        plan = self._plan()
        weights = unit_row(plan.grid.N, k)[: plan.n_max + 1]
        return kernel_series(plan.grid, z, np.zeros(len(weights)), weights)

    def reconstruct(self, X, z):
        """Kernel-route reconstruction sum_k Xi_k(z) Psi_k.

        Mathematically identical to evaluating the recovered coefficients,
        but computed directly from the samples: with w0 = conj(z)/sqrt(p),
        sum_k Xi_k(z) Psi_k = (1/N) e^{(p-|z|^2)/2} sum_{m<=M} w0^m S_m.
        """
        plan = self._plan()
        S = plan.grid.N * np.fft.ifft(grid_samples(X, plan.grid))
        weights = S[: plan.n_max + 1]
        return kernel_series(plan.grid, z, np.zeros(len(weights)), weights)

    def dft_coefficients(self, X) -> FockVector:
        """Coefficients a_m = (N lam_m)^{-1/2} sum_k e^{2 pi i k m / N} Psi_k."""
        plan = self._plan()
        return FockVector(recover(grid_samples(X, plan.grid), self._log_scale(plan)))

    def range_projector(self) -> np.ndarray:
        """N x N matrix P_{lk} = Xi_k(z_l) = (1/N) sum_{m<=M} e^{2 pi i (k-l) m/N}.

        Orthogonal projector onto the sample vectors reachable from modes
        0..M; rank and trace equal M+1.  P is circulant, so its first column
        (the FFT of the in-band indicator, over N) fills the whole matrix.
        """
        plan = self._plan()
        N, M = plan.grid.N, plan.n_max
        column = np.fft.fft(np.arange(N) <= M) / N
        k = np.arange(N)
        return column[np.mod(k[:, None] - k[None, :], N)]

    def resample(self) -> np.ndarray:
        """Values of the fitted state on the grid (identity when fitted from
        consistent samples): the circulant P applied as FFT, in-band mask,
        inverse FFT."""
        check_fitted(self, "samples_")
        M = self._plan().n_max
        in_band = np.arange(len(self.samples_)) <= M
        return np.fft.fft(np.fft.ifft(self.samples_) * in_band)
