"""Partial (projection) reconstruction from undersampled phase circles.

With fewer samples than active modes the sampled coherent states only span a
proper subspace, and the best available recovery is the orthogonal projection
onto that span.  Its coefficients are the aliases

    ahat_n = sqrt(lam_n)/lhat_{n mod N} * (1/sqrt(N)) sum_k e^{2 pi i k n/N} Psi_k,

periodic across residue classes up to sqrt(lam) ratios, and the projection
interpolates the data through the kernel

    L_k(z) = (1/N) e^{(p-|z|^2)/2} sum_{n>=0} (lam_n / lhat_{n mod N}) w^n,

with w = conj(z) z_k / p and L_k(z_l) = delta_kl: the exact module's residue
DFT under the filter c_n = lam_n / lhat_{n mod N}, which is 1/(1 + nu_n) in
band.  Truncating the aliases at M <= N-1 and multiplying by (1 + nu_n) undoes
that attenuation; that is the filtered pipeline.
"""

from __future__ import annotations

import math

import numpy as np

from ._validation import as_finite_points, check_order
from .exact import _Reconstructor, dft_log_scale, recover
from .fock import FockVector, PhaseGrid, grid_samples
from .spectral import SpectralData, log_mode_weight

__all__ = ["PartialReconstructor"]


class PartialReconstructor(_Reconstructor):
    """Project sample data onto the span of N sampled coherent states.

    Parameters
    ----------
    N : grid size.
    p : squared circle radius.
    n_max : alias materialization cutoff (default p + 20 sqrt(p) + 10 N,
        never below N - 1).
    """

    _params = ("N", "p", "n_max")

    def __init__(self, N=None, p=None, n_max=None):
        self.N = N
        self.p = p
        self.n_max = n_max

    def _plan(self) -> SpectralData:
        """Plan of the aliases n = 0..n_max."""
        plan = SpectralData.build(PhaseGrid(self.N, self.p), self.n_max)
        if plan.n_max < plan.grid.N - 1:
            raise ValueError(
                f"n_max = {plan.n_max} must cover at least one full residue "
                f"period (N - 1 = {plan.grid.N - 1})"
            )
        return plan

    @staticmethod
    def _log_scale(plan: SpectralData) -> np.ndarray:
        """log(sqrt(lam_n) / (lhat_{n mod N} sqrt(N))) for n = 0..n_max."""
        N = plan.grid.N
        j = np.mod(np.arange(plan.n_max + 1), N)
        return 0.5 * plan.log_weights - plan.log_folded[j] - 0.5 * math.log(N)

    @staticmethod
    def _log_filter(plan: SpectralData, z) -> np.ndarray:
        """log c_n = log lam_n - log lhat_{n mod N}, out safely past the modal
        index max(p, |z| sqrt(p)) of the |w0|^n lam_n terms at the largest
        |z|, and never short of n_max."""
        grid, zs = plan.grid, as_finite_points(z)
        scale = max(grid.p, float(np.max(np.abs(zs), initial=0.0)) * math.sqrt(grid.p))
        needed = int(math.ceil(scale + 20.0 * math.sqrt(scale) + 10.0 * grid.N))
        size = max(plan.n_max, needed) + 1
        j = np.mod(np.arange(size), grid.N)
        return _log_weights(plan, size) - plan.log_folded[j]

    # own class attributes: perfbench/tracing.py wraps them through vars(cls)
    transform = _Reconstructor.transform
    predict = _Reconstructor.predict
    reconstruct = _Reconstructor.reconstruct
    alias_coefficients = _Reconstructor._coefficients
    lagrange_kernel = _Reconstructor._kernel

    def projector_element(self, m: int, n: int) -> float:
        """Matrix element <m| P |n> of the projection onto the sample span:
        sqrt(lam_m lam_n)/lhat_{n mod N} when (n - m) mod N = 0, else 0."""
        plan = self._plan()
        m = check_order(m, "m")
        n = check_order(n, "n")
        if (n - m) % plan.grid.N != 0:
            return 0.0
        logw = _log_weights(plan, max(m, n) + 1)
        j = n % plan.grid.N
        return float(np.exp(0.5 * (logw[m] + logw[n]) - plan.log_folded[j]))

    def projector_matrix(self, size: int | None = None) -> np.ndarray:
        """Dense leading block of the projector in the number basis
        (default n_max + 1 rows); nonzero only where m = n (mod N)."""
        plan = self._plan()
        size = plan.n_max + 1 if size is None else int(size)
        if size < 1:
            raise ValueError("size must be >= 1")
        N = plan.grid.N
        half = 0.5 * _log_weights(plan, size)
        out = np.zeros((size, size))
        flat = out.reshape(-1)
        # nonzero entries pair m and n = m + d N: fill one such diagonal at
        # a time, so the work space is O(size) beside the output
        reach = (size - 1) // N
        for d in range(-reach, reach + 1):
            m = np.arange(max(0, -d * N), min(size, size - d * N))
            n = m + d * N
            flat[m * size + n] = np.exp((half[m] + half[n]) - plan.log_folded[n % N])
        return out

    def filter_factors(self, M: int | None = None) -> np.ndarray:
        """In-band filter gains 1 + nu_n for n = 0..M."""
        plan = self._band_plan(
            M, "filter order M = {M} must stay below the grid size N = {N}"
        )
        return 1.0 + plan.excess[: plan.n_max + 1]

    def reconstruct_filtered(self, X, M: int | None = None) -> FockVector:
        """Truncate the aliases at M <= N-1 and undo the (1+nu_n)^{-1}
        in-band attenuation.

        Since (1+nu_n) = lhat_n/lam_n, the gain times the alias scale
        sqrt(lam_n)/(lhat_n sqrt(N)) is 1/sqrt(N lam_n): the filtered
        pipeline is exactly the oversampled DFT recovery of modes 0..M.
        """
        plan = self._band_plan(M, "filtered mode needs M < N; got M = {M}, N = {N}")
        return FockVector(recover(grid_samples(X, plan.grid), dft_log_scale(plan)))


def _log_weights(plan: SpectralData, size: int) -> np.ndarray:
    """log lam_n for n < size: the plan's array where it reaches that far,
    else a longer one."""
    if size <= plan.n_max + 1:
        return plan.log_weights[:size]
    return log_mode_weight(np.arange(size), plan.grid.p, plan.grid.N)

