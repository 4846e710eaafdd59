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

import bisect
import math

import numpy as np

from ._validation import as_finite_points, check_order
from .exact import ExactReconstructor, _Reconstructor
from .fock import _LOG_TINY, _LOG_U, FockVector, PhaseGrid, PolarMesh
from .spectral import SpectralData, log_mode_weight

__all__ = ["PartialReconstructor"]


class PartialReconstructor(_Reconstructor):
    """Project sample data onto the span of N sampled coherent states.

    The recovered aliases are modes 0..n_max, n_max = ceil(p + 20 sqrt(p)
    + 10 N) (at least 10 N); from `_alias_bound` B on each is an exact zero
    for any finite samples, and only the modes below B are weighted.

    Parameters
    ----------
    N : grid size.
    p : squared circle radius.
    """

    _params = ("N", "p")

    def __init__(self, N=None, p=None):
        self.N = N
        self.p = p

    def _plan(self) -> SpectralData:
        grid = PhaseGrid(self.N, self.p)
        n_max = math.ceil(grid.p + 20.0 * math.sqrt(grid.p) + 10.0 * grid.N)
        return SpectralData.build(grid, n_max)

    @staticmethod
    def _log_scale(plan: SpectralData) -> np.ndarray:
        """log(sqrt(lam_n) / (lhat_{n mod N} sqrt(N))) for n = 0..n_max, with
        -inf from B = `_alias_bound` on: there every alias is an exact zero
        for any finite S, and `recover` fills it without a weight."""
        N, p, log_folded = plan.grid.N, plan.grid.p, plan.log_folded
        out = np.full(plan.n_max + 1, -np.inf)
        n = np.arange(min(_alias_bound(p, N, np.min(log_folded)), plan.n_max + 1))
        out[n] = 0.5 * log_mode_weight(n, p, N) - log_folded[n % N] - 0.5 * math.log(N)
        return out

    @staticmethod
    def _log_filter(plan: SpectralData, z) -> np.ndarray:
        """log c_n = log lam_n - log lhat_{n mod N} for n below
        `_filter_bound` at the largest sqrt(p) |z| of the call (of a
        PolarMesh, its largest radius)."""
        grid = plan.grid
        if isinstance(z, PolarMesh):
            r = max(z.radii, default=0.0)
        else:
            r = float(np.max(np.abs(as_finite_points(z)), initial=0.0))
        s = math.sqrt(grid.p) * r
        if s > 2.0**52:  # the mode indices near s must be exact doubles
            raise ValueError(f"|z| = {r:g} puts sqrt(p) |z| = {s:g} beyond 2^52, "
                             "too far out to sum the projection's series")
        n = np.arange(_filter_bound(grid.N, s))
        return log_mode_weight(n, grid.p, grid.N) - plan.log_folded[n % grid.N]

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
        log_m, log_n = log_mode_weight(np.array([m, n]), plan.grid.p, plan.grid.N)
        return float(np.exp(0.5 * (log_m + log_n) - plan.log_folded[n % plan.grid.N]))

    def projector_matrix(self, size: int) -> np.ndarray:
        """Dense leading size x size block of the projector in the number
        basis; nonzero only where m = n (mod N)."""
        plan = self._plan()
        size = check_order(size, "size")
        if size < 1:
            raise ValueError("size must be >= 1")
        N = plan.grid.N
        half = 0.5 * log_mode_weight(np.arange(size), plan.grid.p, N)
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
        """In-band filter gains 1 + nu_n for n = 0..M (default N - 1)."""
        plan = ExactReconstructor(self.N, self.p, M)._plan()
        return 1.0 + plan.excess[: plan.n_max + 1]

    def reconstruct_filtered(self, X, M: int | None = None) -> FockVector:
        """Truncate the aliases at M <= N-1 (default N - 1) and undo the
        (1+nu_n)^{-1} in-band attenuation.

        Since (1+nu_n) = lhat_n/lam_n, the gain times the alias scale
        sqrt(lam_n)/(lhat_n sqrt(N)) is 1/sqrt(N lam_n): the filtered
        pipeline is exactly the oversampled DFT recovery of modes 0..M,
        so it is that recovery.
        """
        return ExactReconstructor(self.N, self.p, M).dft_coefficients(X)


def _alias_bound(p: float, N: int, log_floor: float) -> int:
    """First mode B >= max(N, p) where 0.5 log(lam_B / N) - log_floor +
    log(DBL_MAX) < _LOG_TINY, log_floor = min_j log lhat_j.  That bounds the
    log of every alias |S_j| sqrt(lam_n)/(lhat_j sqrt(N)) at n = B and falls
    with n past p (the log pmf is concave), so every alias from B on is an
    exact zero.  One nat, plus 1e-12 of the magnitudes summed, covers
    math.lgamma against gammaln.  Found by `_first_dead`."""
    log_p, log_max = math.log(p), math.log(np.finfo(float).max)

    def dead(n: int) -> bool:
        lgam = math.lgamma(n + 1.0)
        slack = 1.0 + 1e-12 * (p + n * abs(log_p) + lgam)
        return 0.5 * (n * log_p - p - lgam) - log_floor + log_max + slack < _LOG_TINY

    return _first_dead(dead, max(N, math.ceil(p)))


def _filter_bound(N: int, s: float) -> int:
    """Length L >= N of the projection's off-grid series, valid at every
    point with sqrt(p) |z| <= s: its terms past L sum to at most u/L of the
    point's largest term below L, u = 2^-53, whatever the weights.

    The weights depend on n mod N only, and so does lhat, so term n and
    term a = n - qN differ by the factor g(n)/g(a), g(n) = s^n/n! (that is
    lam_n |w0|^n over lam_a |w0|^a).  Take every a in one period
    A..A+N-1 <= L-1 placed on the peak n ~ s of g.  g is log-concave, so
    g(a) >= min(g(A), g(A+N-1)), and from L >= s on it falls by at least
    s/(L+1) per mode.  The tail is then at most max|t| g(L) /
    ((1 - s/(L+1)) min(g(A), g(A+N-1))), and L is the first length where
    that factor is below u/L; one nat plus 1e-12 of the magnitudes summed
    covers the rounding of math.lgamma.  At fixed A every factor grows with
    s, so the bound for the largest s holds at each point.  Found by
    `_first_dead`."""
    if s == 0.0:
        return N  # only the n = 0 term is nonzero
    log_s = math.log(s)

    def log_g(n: int) -> float:
        return n * log_s - math.lgamma(n + 1.0)

    def dead(L: int) -> bool:
        A = min(max(0, round(s - 0.5 * (N - 1))), L - N)
        slack = 1.0 + 1e-12 * (L * abs(log_s) + math.lgamma(L + 1.0))
        tail = log_g(L) - math.log1p(-s / (L + 1)) - min(log_g(A), log_g(A + N - 1))
        return tail + slack <= _LOG_U - math.log(L)

    return _first_dead(dead, max(N, math.ceil(s)))


def _first_dead(dead, lo: int) -> int:
    """Least n >= lo >= 1 with dead(n), for a dead() that stays true once true."""
    hi = lo
    while not dead(hi):
        hi *= 2
    return bisect.bisect_left(range(hi + 1), True, lo, key=dead)
