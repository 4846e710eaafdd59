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
from .spectral import SpectralData

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


# exp(x) rounds to exactly 0 below this: it is under half the smallest
# subnormal by a factor of e/2
_LOG_TINY = math.log(np.finfo(float).smallest_subnormal) - 1.0


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
        return SpectralData.build(grid, M, self.series_tol)

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
    series_tol : optional override for the spectral series tolerance.
    """

    _params = ("N", "p", "M", "series_tol")

    def __init__(self, N=None, p=None, M=None, series_tol=None):
        self.N = N
        self.p = p
        self.M = M
        self.series_tol = series_tol
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
        grid, M = plan.grid, plan.n_max
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
        plan = self._plan()
        grid, M = plan.grid, plan.n_max
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
