"""Mode weights, their grid-periodized sums and the circulant overlap matrix.

For the circle grid with N points at radius sqrt(p) the frame operator is
diagonal on the number basis with eigenvalues

    lam_m = N e^{-p} p^m / m!      (N times the Poisson pmf),

while the N x N overlap (Gram) matrix B of the sampled coherent states is a
Hermitian circulant whose eigenvalues are the periodized sums

    lhat_j = sum_{q >= 0} lam_{j + qN},   j = 0..N-1.

The relative excess nu_n = (lhat_n - lam_n)/lam_n = sum_{u >= 1} n! p^{uN} /
(n + uN)! measures how much aliased weight a residue class carries and
controls the reconstruction error.

Both series run through one log-space routine, _log_fold, on (rows x c)
blocks of the terms at m = j + qN with a running logaddexp down q, for the c
leading columns j < c that the caller reads: c = N for a whole series, and
c = 1 for nu_0, the only excess the error bound reads.  Rows whose every m
is at most p - 40 sqrt(p) - N are skipped: the Poisson pmf is log-concave
and rises up to p, so each such term is below e^{-799} of its column's term
in (p - N, p] and changes neither sum.  The sum stops at the first row q
with q N > p whose new terms in those c columns are all at most SERIES_TOL =
1e-16 times the running sums: such a term is below the unit roundoff 2^-53
of its sum, so the series converge to double precision.  The first block
ends one row past the predicted stop (p + (sqrt(2 |log SERIES_TOL|) + 4)
sqrt(p)) / N, the row that column 0 needs when lam_0 is below lam_N.  Blocks
have max(1, _BLOCK // 4c) rows, so their live temporaries hold about
fock._BLOCK elements.  Cost: O(sqrt(p)/N + 1) rows of c terms, so
O(sqrt(p) + N) terms for a whole series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from ._validation import check_grid_size, check_mean_number, check_order
from .fock import _BLOCK, PhaseGrid, _log_poisson, cs_overlap

__all__ = [
    "SERIES_TOL",
    "log_mode_weight",
    "mode_weight",
    "log_folded_weight",
    "folded_weight",
    "log_aliasing_excess",
    "aliasing_excess",
    "critical_radius",
    "critical_radius_asymptote",
    "default_n_max",
    "SpectralData",
    "CirculantOverlap",
    "build_overlap",
]

# series stop: a new term at most this share of its running sum is below the
# unit roundoff 2^-53 ~ 1.11e-16, so it cannot change the sum
SERIES_TOL = 1e-16


def log_mode_weight(m, p, N) -> np.ndarray:
    """log(N e^{-p} p^m / m!) for scalar or array m."""
    p = check_mean_number(p)
    N = check_grid_size(N)
    mf = np.asarray(m, dtype=float)
    if np.any(mf < 0):
        raise ValueError("mode index must be >= 0")
    return _log_poisson(mf, p, offset=math.log(N))


def mode_weight(m, p, N):
    """Frame-operator eigenvalue lam_m = N e^{-p} p^m / m!.

    Evaluated in log space; underflows cleanly to 0.0 once the true value
    drops below double range.
    """
    out = np.exp(log_mode_weight(m, p, N))
    return float(out) if np.ndim(m) == 0 else out


def _log_fold(
    p: float, N: int, start: int, term, cols: int | None = None
) -> tuple[np.ndarray, int]:
    """(log sum_{q >= start} exp(term(m, qN)) per column j < cols, q*) with
    m = j + qN and cols = N by default, summed up to the stop row q* of those
    columns: head bound, stop rule and block sizes are in the module
    docstring; each extension doubles the rows summed so far."""
    if p > 2.0**52:  # the indices m near p must be exact doubles
        raise ValueError(f"mean number p = {p:g} is beyond 2^52, too large to fold")
    cols = N if cols is None else cols
    log_tol = math.log(SERIES_TOL)
    root = math.sqrt(p)
    first = max(start, math.floor((p - 40.0 * root) / N) - 1)
    hi = max(first, math.ceil((p + (math.sqrt(-2.0 * log_tol) + 4.0) * root) / N)) + 2
    rows = max(1, _BLOCK // (4 * cols))  # four block-sized temporaries live at once
    j = np.arange(cols, dtype=float)
    run, lo = np.full(cols, -np.inf), first
    for _ in itertools.count():
        qN = np.arange(lo, min(hi, lo + rows), dtype=float)[:, None] * N
        terms = term(qN + j, qN)
        sums = np.logaddexp.accumulate(np.vstack([run, terms]), axis=0)[1:]
        done = (qN[:, 0] > p) & np.all(terms <= log_tol + sums, axis=1)
        if done.any():
            k = int(np.argmax(done))
            return sums[k], lo + k
        run, lo = sums[-1], lo + len(terms)
        hi = max(hi, 2 * lo - first)


def log_folded_weight(p, N) -> np.ndarray:
    """log lhat_j = log sum_{q >= 0} lam_{j+qN} for j = 0..N-1, finite even
    where lhat_j underflows double range."""
    p = check_mean_number(p)
    N = check_grid_size(N)
    return _log_fold(p, N, 0, lambda m, qN: _log_poisson(m, p, offset=math.log(N)))[0]


def folded_weight(p, N) -> np.ndarray:
    """Periodized weights lhat_j = sum_q lam_{j+qN}, j = 0..N-1: the exp of
    log_folded_weight, so an lhat_j below double range is 0.  Summed from the
    head bound to double-precision convergence (the first q with q N > p
    whose terms are all below the unit roundoff of the running sums);
    O(sqrt(p) + N) terms."""
    return np.exp(log_folded_weight(p, N))


def _log_excess(p, N, cols: int | None = None) -> np.ndarray:
    """log(nu_n) for n = 0..cols-1 (cols = N by default), folded to the stop
    row of those columns alone."""
    p = check_mean_number(p)
    N = check_grid_size(N)
    cols = N if cols is None else cols
    log_p = math.log(p)
    base = gammaln(np.arange(cols) + 1.0)
    return _log_fold(p, N, 1, lambda m, qN: base - gammaln(m + 1.0) + qN * log_p, cols)[0]


def log_aliasing_excess(p, N) -> np.ndarray:
    """log(nu_n) for n = 0..N-1, finite even where nu underflows double range.

    The terms n! p^{uN} / (n+uN)! are summed from u = 1 (or the head bound)
    to double-precision convergence (the first u with u N > p whose terms
    are all below the unit roundoff of the running sums); O(sqrt(p) + N)
    terms.
    """
    return _log_excess(p, N)


def aliasing_excess(p, N) -> np.ndarray:
    """Relative aliased weight nu_n = (lhat_n - lam_n)/lam_n, n = 0..N-1.

    Computed directly from the series sum_{u>=1} n! p^{uN} / (n+uN)! rather
    than by dividing two nearly equal numbers, so it stays strictly positive
    and strictly decreasing in n down to the underflow floor.
    """
    return np.exp(log_aliasing_excess(p, N))


def critical_radius(N) -> float:
    """p0(N) = ((2N)!/N!)^{1/N}, below which the first excess term dominates."""
    N = check_grid_size(N)
    return math.exp((gammaln(2 * N + 1) - gammaln(N + 1)) / N)


def critical_radius_asymptote(N) -> float:
    """Leading large-N behavior (4/e) N (1 + ln2/(2N))."""
    N = check_grid_size(N)
    return 4.0 / math.e * N * (1.0 + math.log(2.0) / (2.0 * N))


def default_n_max(p, N) -> int:
    """Default materialization cutoff p + 20 sqrt(p) + 10 N."""
    p = check_mean_number(p)
    N = check_grid_size(N)
    return int(math.ceil(p + 20.0 * math.sqrt(p) + 10.0 * N))


@dataclass
class SpectralData:
    """Weight arrays for one grid: the plan that every reconstruction reads.

    weights[m] = lam_m for m = 0..n_max, folded[j] = lhat_j and
    excess[j] = nu_j for j = 0..N-1, each beside its log.  Each array is
    computed on first read and then kept, so a caller pays only for the
    series it reads.
    """

    grid: PhaseGrid
    n_max: int

    @staticmethod
    def build(grid: PhaseGrid, n_max: int | None = None) -> "SpectralData":
        """Validate the grid and resolve the default n_max; no array is
        computed yet."""
        if not isinstance(grid, PhaseGrid):
            raise ValueError("grid must be a PhaseGrid")
        if n_max is None:
            n_max = default_n_max(grid.p, grid.N)
        return SpectralData(grid, check_order(n_max, "n_max"))

    @cached_property
    def log_weights(self) -> np.ndarray:
        return log_mode_weight(np.arange(self.n_max + 1), self.grid.p, self.grid.N)

    @cached_property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    @cached_property
    def log_folded(self) -> np.ndarray:
        return log_folded_weight(self.grid.p, self.grid.N)

    @cached_property
    def folded(self) -> np.ndarray:
        return np.exp(self.log_folded)

    @cached_property
    def log_excess(self) -> np.ndarray:
        return log_aliasing_excess(self.grid.p, self.grid.N)

    @cached_property
    def excess(self) -> np.ndarray:
        return np.exp(self.log_excess)

    def weight_sum_defect(self) -> float:
        """|sum_m lam_m - N| over the materialized block; diagnostic for n_max."""
        return abs(float(np.sum(self.weights)) - self.grid.N)


@dataclass
class CirculantOverlap:
    """Gram matrix B_{kl} = <z_k|z_l> of the sampled coherent states.

    B is circulant: B_{kl} depends on l-k only, with first row
    C_l = e^{-p} exp(p e^{2 pi i l / N}) and eigenvalues lhat_j on the
    Fourier columns.
    """

    grid: PhaseGrid
    first_row: np.ndarray
    eigenvalues: np.ndarray

    def dft_eigenvalues(self) -> np.ndarray:
        """Eigenvalues recomputed as the FFT of the first row.

        Cross-validation route for the series values.  The FFT's rounding
        error is O(eps log N) of the largest eigenvalue (the norm of B), so
        tiny eigenvalues carry a large relative error in this route.
        """
        return np.fft.fft(self.first_row).real

    def series_dft_defect(self) -> float:
        """Max |series - dft| / max(lhat); consistency diagnostic relative
        to the norm of B, the scale of the DFT route's rounding."""
        dft = self.dft_eigenvalues()
        return float(np.max(np.abs(self.eigenvalues - dft)) / np.max(self.eigenvalues))

    def condition(self) -> float:
        lo = float(np.min(self.eigenvalues))
        hi = float(np.max(self.eigenvalues))
        return math.inf if lo == 0.0 else hi / lo


def build_overlap(grid: PhaseGrid) -> CirculantOverlap:
    """Assemble the circulant overlap with series eigenvalues."""
    if not isinstance(grid, PhaseGrid):
        raise ValueError("grid must be a PhaseGrid")
    N, p = grid.N, grid.p
    l = np.arange(N)
    first_row = np.exp(p * (np.exp(2j * np.pi * l / N) - 1.0))
    return CirculantOverlap(grid, first_row, folded_weight(p, N))


# kept in spectral, not oracle: perfbench/tracing.py looks it up here
def overlap_from_points(grid: PhaseGrid) -> np.ndarray:
    """Dense Gram matrix B_{kl} = cs_overlap(z_k, z_l), built pairwise;
    independent of the circulant closed form, used for cross-checks."""
    if not isinstance(grid, PhaseGrid):
        raise ValueError("grid must be a PhaseGrid")
    zs = grid.points()
    return cs_overlap(zs[:, None], zs[None, :])
