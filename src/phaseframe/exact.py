"""Exact reconstruction from oversampled phase circles (N > M).

For states supported on modes 0..M with N > M samples, the coefficients are
a filtered DFT of the samples, a_m = S_m / sqrt(N lam_m) with
S_m = sum_k e^{2 pi i k m / N} Psi(z_k), and the wave function anywhere in
the plane is sum_k Xi_k(z) Psi_k with the discrete sinc-type kernel

    Xi_k(z) = (1/N) e^{(p - |z|^2)/2} sum_{m=0}^{M} w^m,   w = conj(z) z_k / p.

Off the grid, sum_k K_k(z) Psi_k is (1/N) e^{(p-|z|^2)/2} times
sum_n c_n w0^n S_{n mod N} with w0 = conj(z)/sqrt(p), and the kernel K_k(z)
has e^{2 pi i k n / N} for S_{n mod N}: one residue DFT under a per-mode
filter, c_n = 1 on modes 0..M here and lam_n / lhat_{n mod N} for the
projection of the partial module.  `_Reconstructor` writes each route once
and sums the series through `fock.series_at`, as `evaluate` does.

Both operations follow the sklearn estimator conventions: hyperparameters in
__init__, data work in fit/transform/predict.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ._validation import check_fitted, check_order
from .fock import _LOG_TINY, FockVector, PhaseGrid, evaluate, grid_samples
from .fock import series_at, unit_phase
from .spectral import SpectralData

__all__ = ["ExactReconstructor"]


def recover(values: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """c_n = exp(log_scale_n) S_{n mod N} for n < len(log_scale), where
    S_j = sum_k e^{2 pi i k j / N} Psi_k.

    Both reconstructions are this kernel with their own per-mode scale: one
    inverse FFT along the last axis of `values` (a sample vector or a stack
    of them), then log|S_j| and S_j/|S_j| (`unit_phase`: 0 at S_j = 0, and
    no overflow at a subnormal S_j) once per residue, so a mode costs one
    add, one real exp and one multiply, written period by period into the
    output.  Modes past the last n with log_scale_n + log max|S| >=
    _LOG_TINY are filled with 0 * S_j/|S_j| by periodic broadcast: the
    signed zeros exp gives.  Overflow is the ValueError, not a warning.
    """
    N = values.shape[-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        S = N * np.fft.ifft(values, axis=-1)
        mag = np.abs(S)
        # a NaN or inf in S keeps every column, so the finite check sees it
        live = np.flatnonzero(~(log_scale + np.log(np.max(mag)) < _LOG_TINY))
        K = live[-1] + 1 if live.size else 0
        out = np.empty(S.shape[:-1] + log_scale.shape, dtype=complex)
        R = N if K < out.shape[-1] else min(K, N)  # residues read; a tail reads all
        mag, log_mag = mag[..., :R], np.log(mag[..., :R])
        unit = unit_phase(S[..., :R], mag)
        for o, s in zip(_periods(out[..., :K], N), _periods(log_scale[:K], N)):
            if s.size:
                t = log_mag[..., None, : s.shape[-1]] + s
                np.multiply(np.exp(t, out=t), unit[..., None, : s.shape[-1]], out=o)
        if K < out.shape[-1]:
            tail = np.roll(0.0 * unit, -K, axis=-1)
            for o in _periods(out[..., K:], N):
                o[...] = tail[..., None, : o.shape[-1]]
    bad = ~np.all(np.isfinite(out[..., :K]), axis=tuple(range(out.ndim - 1)))
    if bad.any():
        n = int(np.argmax(bad))
        raise ValueError("coefficients must contain only finite entries; first not "
                         f"at mode n = {n}, scale 10^{log_scale[n] / math.log(10):.1f}")
    return out


def _periods(a: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The last axis of `a` as views of its whole periods, shape (..., q, N),
    and of the remainder, shape (..., 1, r)."""
    q, r = divmod(a.shape[-1], N)
    lead = a.shape[:-1]
    return a[..., : q * N].reshape(lead + (q, N)), a[..., q * N :].reshape(lead + (1, r))


class _Reconstructor:
    """Estimator core shared by both reconstructors.

    Hyperparameters live in __init__ and are listed in `_params`.  Each
    subclass supplies its plan (`_plan`, one SpectralData per public call),
    its per-mode log scale (`_log_scale`, one entry per recovered mode) and
    the log of its off-grid filter c_n (`_log_filter(plan, z)`).  Every
    route is written here once.
    """

    _params: tuple[str, ...] = ()
    coef_ = samples_ = None  # until fit

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

    def transform(self, X) -> np.ndarray:
        """Coefficient rows for one sample vector or a stack of them."""
        plan = self._plan()
        return recover(grid_samples(X, plan.grid, stack=True), self._log_scale(plan))

    def predict(self, z):
        """Evaluate the fitted state's wave function at z (scalar or array)."""
        return evaluate(self.state(), z)

    def reconstruct(self, X, z):
        """Kernel-route reconstruction sum_k K_k(z) Psi_k: mathematically
        identical to evaluating the recovered coefficients, but summed
        directly over the residue DFT S_{n mod N} of the samples."""
        plan = self._plan()
        S = plan.grid.N * np.fft.ifft(grid_samples(X, plan.grid))
        return self._series(plan, z, S)

    def _coefficients(self, X) -> FockVector:
        """Exact a_m = (N lam_m)^{-1/2} sum_k e^{2 pi i k m / N} Psi_k, or the
        aliases ahat_n for n = 0..n_max.  All aliases of a residue class share
        one DFT value and one folded weight, so the periodization identity
        ahat_{n+N} sqrt(lam_n) = ahat_n sqrt(lam_{n+N}) holds by construction.
        """
        plan = self._plan()
        return FockVector(recover(grid_samples(X, plan.grid), self._log_scale(plan)))

    def _kernel(self, k: int, z):
        """Interpolation kernel: the exact Xi_k(z), with Xi_k(z_l) = delta_kl at
        critical sampling N = M+1, or the projection's L_k(z), with
        L_k(z_l) = delta_kl; for N = 1 that is the coherent-state overlap
        ratio C(z, z_0), since lhat_0 sums every weight."""
        plan, N = self._plan(), self.N
        unit = np.exp(2j * np.pi * np.mod(int(k) * np.arange(N), N) / N)  # k j mod N first
        return self._series(plan, z, unit)

    def _series(self, plan: SpectralData, z, W: np.ndarray):
        """(1/N) e^{(p-|z|^2)/2} sum_n c_n w0^n W_{n mod N}, w0 = conj(z)/sqrt(p)."""
        N, p, log_c = plan.grid.N, plan.grid.p, self._log_filter(plan, z)
        W = np.resize(W, len(log_c))  # periodic: W_{n mod N}
        return series_at(z, log_c, W, 1.0 / math.sqrt(p), 0.5 * p - math.log(N))


class ExactReconstructor(_Reconstructor):
    """Recover a mode-limited state from N > M phase samples.

    Parameters
    ----------
    N : grid size (number of phase samples).
    p : squared circle radius / mean particle number.
    M : largest active mode; must satisfy M < N (default N - 1).
    """

    _params = ("N", "p", "M")

    def __init__(self, N=None, p=None, M=None):
        self.N = N
        self.p = p
        self.M = M

    def _plan(self) -> SpectralData:
        """Plan of modes 0..M: the one check of M < N for every band route."""
        grid = PhaseGrid(self.N, self.p)
        M = grid.N - 1 if self.M is None else check_order(self.M, "M")
        if M >= grid.N:
            raise ValueError("in-band recovery needs M < N (strict oversampling); "
                             f"got M = {M}, N = {grid.N}")
        return SpectralData.build(grid, M)

    @staticmethod
    def _log_scale(plan: SpectralData) -> np.ndarray:
        """-(log N + log lam_m)/2 for m = 0..M: the oversampled recovery
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

    @staticmethod
    def _log_filter(plan: SpectralData, z) -> np.ndarray:
        """log c_n = 0 on modes 0..M."""
        return np.zeros(plan.n_max + 1)

    # own class attributes: perfbench/tracing.py wraps them through vars(cls)
    transform = _Reconstructor.transform
    predict = _Reconstructor.predict
    reconstruct = _Reconstructor.reconstruct
    dft_coefficients = _Reconstructor._coefficients
    sinc_kernel = _Reconstructor._kernel

    def resample(self) -> np.ndarray:
        """Values of the fitted state on the grid: the orthogonal projector
        P_{lk} = Xi_k(z_l) onto the samples reachable from modes 0..M
        (rank M+1, the identity at M = N-1), applied as inverse FFT, in-band
        mask, FFT."""
        check_fitted(self, "samples_")
        M = self._plan().n_max
        in_band = np.arange(len(self.samples_)) <= M
        return np.fft.fft(np.fft.ifft(self.samples_) * in_band)
