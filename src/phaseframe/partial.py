"""Partial (projection) reconstruction from undersampled phase circles.

With fewer samples than active modes the sampled coherent states only span a
proper subspace, and the best available recovery is the orthogonal projection
onto that span.  Its coefficients are the aliases

    ahat_n = sqrt(lam_n)/lhat_{n mod N} * (1/sqrt(N)) sum_k e^{2 pi i k n/N} Psi_k,

periodic across residue classes up to sqrt(lam) ratios, and the projection
interpolates the data through the kernel

    L_k(z) = (1/N) e^{(p-|z|^2)/2} sum_{n>=0} (lam_n / lhat_{n mod N}) w^n,

with w = conj(z) z_k / p and L_k(z_l) = delta_kl.  Truncating the aliases at
M <= N-1 and multiplying by (1 + nu_n) undoes the in-band attenuation; that
is the filtered pipeline.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ._validation import check_finite, check_fitted, check_order
from .exact import dft_recover
from .fock import FockVector, PhaseGrid, evaluate, grid_samples, scale_by_exp
from .spectral import (
    default_n_max,
    folded_weight,
    log_aliasing_excess,
    log_mode_weight,
    resolve_series_tol,
)

__all__ = ["PartialReconstructor"]


class PartialReconstructor:
    """Project sample data onto the span of N sampled coherent states.

    Parameters
    ----------
    N : grid size.
    p : squared circle radius.
    n_max : alias materialization cutoff (default p + 20 sqrt(p) + 10 N,
        never below N - 1).
    series_tol : optional override for the spectral series tolerance.
    """

    def __init__(self, N=None, p=None, n_max=None, series_tol=None):
        self.N = N
        self.p = p
        self.n_max = n_max
        self.series_tol = series_tol
        self.coef_ = None
        self.samples_ = None

    # -- estimator plumbing -------------------------------------------------

    def get_params(self, deep: bool = True) -> dict:
        return {
            "N": self.N,
            "p": self.p,
            "n_max": self.n_max,
            "series_tol": self.series_tol,
        }

    def set_params(self, **params) -> "PartialReconstructor":
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for PartialReconstructor")
            setattr(self, key, value)
        self.coef_ = None
        self.samples_ = None
        return self

    def _grid(self):
        """Grid, alias cutoff and series tolerance, validated; no arrays."""
        grid = PhaseGrid(self.N, self.p)
        tol = resolve_series_tol(self.series_tol)
        if self.n_max is None:
            return grid, max(default_n_max(grid.p, grid.N), grid.N - 1), tol
        n_max = check_order(self.n_max, "n_max")
        if n_max < grid.N - 1:
            raise ValueError(
                f"n_max = {n_max} must cover at least one full residue "
                f"period (N - 1 = {grid.N - 1})"
            )
        return grid, n_max, tol

    def _context(self):
        grid, n_max, tol = self._grid()
        logw = log_mode_weight(np.arange(n_max + 1), grid.p, grid.N)
        log_folded = np.log(folded_weight(grid.p, grid.N, tol))
        return grid, n_max, logw, log_folded

    @staticmethod
    def _aliases(values, logw, log_folded) -> np.ndarray:
        """ahat_n for n < len(logw) along the last axis of `values`."""
        N = values.shape[-1]
        S = N * np.fft.ifft(values, axis=-1)
        j = np.mod(np.arange(len(logw)), N)
        logmag = 0.5 * logw - log_folded[j] - 0.5 * math.log(N)
        return check_finite(scale_by_exp(S[..., j], logmag), "coefficients")

    # -- data interface -----------------------------------------------------

    def fit(self, X, y=None) -> "PartialReconstructor":
        grid, _, logw, log_folded = self._context()
        values = grid_samples(X, grid)
        self.coef_ = self._aliases(values, logw, log_folded)
        self.samples_ = values
        return self

    def transform(self, X) -> np.ndarray:
        grid, _, logw, log_folded = self._context()
        values = grid_samples(X, grid, stack=True)
        return self._aliases(values, logw, log_folded)

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X).coef_[None, :]

    def predict(self, z):
        """Evaluate the fitted alias state at z (scalar or array)."""
        check_fitted(self, "coef_")
        return evaluate(FockVector(self.coef_), z)

    def state(self) -> FockVector:
        check_fitted(self, "coef_")
        return FockVector(self.coef_)

    # -- reconstruction contract ---------------------------------------------

    def _series_length(self, grid: PhaseGrid, n_max: int, z: complex) -> int:
        """Series cutoff for off-grid evaluation: run safely past the modal
        index max(p, |z| sqrt(p)) of the |w|^n lam_n terms."""
        scale = max(grid.p, abs(z) * math.sqrt(grid.p))
        needed = int(math.ceil(scale + 20.0 * math.sqrt(scale) + 10.0 * grid.N))
        return max(n_max, needed)

    def _log_ratio(self, grid, logw, log_folded, length: int) -> np.ndarray:
        """log(lam_n / lhat_{n mod N}) for n = 0..length, extending the weight
        array on demand."""
        if length + 1 > len(logw):
            logw = log_mode_weight(np.arange(length + 1), grid.p, grid.N)
        n = np.arange(length + 1)
        return logw[: length + 1] - log_folded[np.mod(n, grid.N)]

    def lagrange_kernel(self, k: int, z):
        """Interpolation kernel L_k(z) with L_k(z_l) = delta_kl.

        For N = 1 this reduces to the coherent-state overlap ratio
        C(z, z_0) since lhat_0 sums every weight.
        """
        grid, n_max, logw, log_folded = self._context()
        k = int(k) % grid.N
        zk = grid.point(k)
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.empty(zs.shape, dtype=complex)
        for idx in range(zs.size):
            zz = complex(zs.flat[idx])
            length = self._series_length(grid, n_max, zz)
            logc = self._log_ratio(grid, logw, log_folded, length)
            w = zz.conjugate() * zk / grid.p
            s = _power_series(logc, w)
            pref = 0.5 * (grid.p - abs(zz) ** 2) - math.log(grid.N)
            out.flat[idx] = scale_by_exp(s, pref)
        if np.ndim(z) == 0:
            return complex(out[0])
        return out

    def reconstruct(self, X, z):
        """Projection reconstruction sum_k L_k(z) Psi_k.

        Evaluated through the residue-class DFT: with w0 = conj(z)/sqrt(p),
        sum_k L_k(z) Psi_k = (1/N) e^{(p-|z|^2)/2} sum_n c_n w0^n S_{n mod N}.
        """
        grid, n_max, logw, log_folded = self._context()
        S = grid.N * np.fft.ifft(grid_samples(X, grid))
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.empty(zs.shape, dtype=complex)
        for idx in range(zs.size):
            zz = complex(zs.flat[idx])
            length = self._series_length(grid, n_max, zz)
            logc = self._log_ratio(grid, logw, log_folded, length)
            w0 = zz.conjugate() / math.sqrt(grid.p)
            weights = S[np.mod(np.arange(length + 1), grid.N)]
            s = _power_series(logc, w0, weights)
            pref = 0.5 * (grid.p - abs(zz) ** 2) - math.log(grid.N)
            out.flat[idx] = scale_by_exp(s, pref)
        if np.ndim(z) == 0:
            return complex(out[0])
        return out

    def alias_coefficients(self, X) -> FockVector:
        """Aliases ahat_n for n = 0..n_max.

        All members of a residue class share one DFT value and one folded
        weight, so the periodization identity
        ahat_{n+N} sqrt(lam_n) = ahat_n sqrt(lam_{n+N}) holds by construction.
        """
        grid, _, logw, log_folded = self._context()
        values = grid_samples(X, grid)
        return FockVector(self._aliases(values, logw, log_folded))

    def projector_element(self, m: int, n: int) -> float:
        """Matrix element <m| P |n> of the projection onto the sample span:
        sqrt(lam_m lam_n)/lhat_{n mod N} when (n - m) mod N = 0, else 0."""
        grid, _, logw, log_folded = self._context()
        m = check_order(m, "m")
        n = check_order(n, "n")
        if (n - m) % grid.N != 0:
            return 0.0
        top = max(m, n)
        logw_full = logw
        if top + 1 > len(logw_full):
            logw_full = log_mode_weight(np.arange(top + 1), grid.p, grid.N)
        j = n % grid.N
        return float(
            np.exp(0.5 * (logw_full[m] + logw_full[n]) - log_folded[j])
        )

    def projector_matrix(self, size: int | None = None) -> np.ndarray:
        """Dense leading block of the projector in the number basis."""
        grid, n_max, logw, log_folded = self._context()
        size = n_max + 1 if size is None else int(size)
        if size < 1:
            raise ValueError("size must be >= 1")
        if size > len(logw):
            logw = log_mode_weight(np.arange(size), grid.p, grid.N)
        n = np.arange(size)
        j = np.mod(n, grid.N)
        half = 0.5 * logw[:size]
        out = np.zeros((size, size))
        same = np.equal.outer(j, j)
        logvals = np.add.outer(half, half) - log_folded[j][None, :]
        out[same] = np.exp(logvals[same])
        return out

    def filter_factors(self, M: int | None = None) -> np.ndarray:
        """In-band filter gains 1 + nu_n for n = 0..M."""
        grid, _, tol = self._grid()
        M = grid.N - 1 if M is None else check_order(M, "M")
        if M >= grid.N:
            raise ValueError(
                f"filter order M = {M} must stay below the grid size N = {grid.N}"
            )
        nu = np.exp(log_aliasing_excess(grid.p, grid.N, tol))
        return 1.0 + nu[: M + 1]

    def reconstruct_filtered(self, X, M: int | None = None) -> FockVector:
        """Truncate the aliases at M <= N-1 and undo the (1+nu_n)^{-1}
        in-band attenuation.

        Since (1+nu_n) = lhat_n/lam_n, the gain times the alias scale
        sqrt(lam_n)/(lhat_n sqrt(N)) is 1/sqrt(N lam_n): the filtered
        pipeline is exactly the oversampled DFT recovery of modes 0..M.
        """
        grid, _, _ = self._grid()
        M = grid.N - 1 if M is None else check_order(M, "M")
        if M >= grid.N:
            raise ValueError(
                f"filtered mode needs M < N; got M = {M}, N = {grid.N}"
            )
        logw = log_mode_weight(np.arange(M + 1), grid.p, grid.N)
        return FockVector(dft_recover(grid_samples(X, grid), logw))


def _power_series(logc: np.ndarray, w: complex, weights=None) -> complex:
    """sum_n exp(logc_n) w^n (optionally with extra complex weights per n),
    evaluated through log magnitudes to tolerate huge n."""
    n = np.arange(len(logc))
    aw = abs(w)
    if aw == 0.0:
        base = np.exp(logc[0])
        return complex(base if weights is None else base * weights[0])
    logmag = logc + n * math.log(aw)
    phase = np.exp(1j * n * cmath.phase(w))
    terms = np.exp(logmag) * phase
    if weights is not None:
        terms = terms * weights
    return complex(np.sum(terms))
