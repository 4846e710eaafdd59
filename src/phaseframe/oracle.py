"""Brute-force dense linear-algebra reference implementations.

Everything here recomputes what the analytic modules produce in closed form,
using nothing but the explicit frame matrix T_{kn} = <z_k|n> and standard
dense solvers.  The production code is validated against these routes; they
are deliberately simple, and size-capped or row-sampled, rather than fast.
The Gram solve is numpy's Cholesky factor and a forward and a back
substitution written here, so no process that uses the oracle loads
scipy.linalg.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._validation import check_grid_size, check_mean_number, check_order
from .fock import _BLOCK, FockVector, PhaseGrid, cs_overlap, evaluate
from .spectral import folded_weight, log_mode_weight, overlap_from_points

__all__ = [
    "OracleSizeError",
    "DenseFrame",
    "dense_project",
    "dense_pseudoinverse_fit",
    "measured_error_sq",
    "quadrature_coefficient",
    "dense_eig_check",
    "fourier_matrix",
]

_N_MAX_CAP = 2000
_EIG_ROWS = 128  # rows of B that dense_eig_check reads: all of them up to this N


class OracleSizeError(ValueError):
    """Requested dense computation exceeds the oracle size caps."""


def _roots(k, N: int, count: int) -> np.ndarray:
    """Rows k (an index array) of the N x count roots of unity
    e^{-2 pi i (k n mod N) / N}.

    The k*n products are reduced mod N in exact integer arithmetic before
    exponentiation, so columns are orthonormal to machine precision.
    """
    return np.exp(-2j * np.pi * np.mod(np.outer(k, np.arange(count)), N) / N)


def fourier_matrix(N) -> np.ndarray:
    """Unitary DFT matrix F_{kn} = e^{-2 pi i k n / N} / sqrt(N)."""
    N = check_grid_size(N)
    return _roots(np.arange(N), N, N) / math.sqrt(N)


@dataclass
class DenseFrame:
    """Explicit N x (n_max+1) frame matrix T_{kn} = sqrt(lam_n/N) e^{-2 pi i k n/N}."""

    grid: PhaseGrid
    n_max: int
    T: np.ndarray

    @staticmethod
    def build(grid: PhaseGrid, n_max: int) -> "DenseFrame":
        if not isinstance(grid, PhaseGrid):
            raise ValueError("grid must be a PhaseGrid")
        n_max = check_order(n_max, "n_max")
        if n_max > _N_MAX_CAP:
            raise OracleSizeError(
                f"dense frame cap is n_max <= {_N_MAX_CAP}, got {n_max}"
            )
        N, p = grid.N, grid.p
        logu = 0.5 * (log_mode_weight(np.arange(n_max + 1), p, N) - math.log(N))
        T = _roots(np.arange(N), N, n_max + 1) * np.exp(logu)[None, :]
        return DenseFrame(grid=grid, n_max=n_max, T=T)

    def gram(self) -> np.ndarray:
        """Overlap matrix built pairwise from cs_overlap, independent of the
        circulant closed form."""
        return overlap_from_points(self.grid)

    def coefficients_of(self, psi: FockVector) -> np.ndarray:
        if not isinstance(psi, FockVector):
            psi = FockVector(psi)
        if len(psi) > self.n_max + 1:
            raise OracleSizeError(
                f"state length {len(psi)} exceeds frame n_max + 1 = {self.n_max + 1}"
            )
        return psi.padded(self.n_max + 1).coefficients

    def _gram_factor(self) -> tuple[np.ndarray, np.ndarray | None]:
        """B with its lower Cholesky factor L (B = L L*), or with None when
        the factorization breaks down."""
        if self.grid.N - 1 > _N_MAX_CAP:  # B is N x N: held to the frame cap
            raise OracleSizeError(f"dense Gram solve cap is N - 1 <= {_N_MAX_CAP}, "
                                  f"got N = {self.grid.N}")
        B = self.gram()
        try:
            return B, np.linalg.cholesky(B)
        except np.linalg.LinAlgError:
            return B, None

    def solve_gram(self, v: np.ndarray) -> np.ndarray:
        """B^{-1} v for a vector v: Cholesky B = L L*, then L y = v by forward
        and L* c = y by back substitution.  When the factorization breaks
        down, eigenbasis division with eigenvalue clipping, with a warning."""
        B, L = self._gram_factor()
        if L is None:
            return _clipped_solve(B, v)
        return _back_substitute(L, _forward_substitute(L, v))


def _forward_substitute(L: np.ndarray, v) -> np.ndarray:
    """L^{-1} v for lower-triangular L, column by column as BLAS trsv does."""
    y = np.array(v, dtype=complex)
    for j in range(len(y)):
        y[j] /= L[j, j]
        y[j + 1:] -= y[j] * L[j + 1:, j]
    return y


def _back_substitute(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L*^{-1} y for lower-triangular L, column by column of L* = L^H."""
    c = y.copy()
    for j in range(len(c) - 1, -1, -1):
        c[j] /= L[j, j].conjugate()
        c[:j] -= c[j] * L[j, :j].conj()
    return c


def _clipped_solve(B: np.ndarray, v) -> np.ndarray:
    """B^{-1} v by eigenbasis division, eigenvalues clipped to 1e-18 of the
    largest; warns, since it runs only where Cholesky has failed."""
    vals, vecs = np.linalg.eigh(B)
    floor = np.max(vals) * 1e-18
    clipped = np.maximum(vals, floor)
    cond = float(np.max(vals) / floor)
    warnings.warn(
        f"Cholesky failed (condition ~{cond:.2e}); using clipped "
        "eigenbasis division",
        RuntimeWarning,
        stacklevel=3,
    )
    return vecs @ ((vecs.conj().T @ v) / clipped)


def dense_project(frame: DenseFrame, psi) -> np.ndarray:
    """Projection of psi onto the sample span: T* B^{-1} T a.

    Ground truth for alias_coefficients.
    """
    a = frame.coefficients_of(psi)
    v = frame.T @ a
    c = frame.solve_gram(v)
    return frame.T.conj().T @ c


def dense_pseudoinverse_fit(frame: DenseFrame, M: int, values) -> np.ndarray:
    """Least-squares coefficients over modes 0..M from sample values.

    Ground truth for the oversampled DFT recovery.
    """
    M = check_order(M, "M")
    if M > frame.n_max:
        raise OracleSizeError(f"M = {M} exceeds frame n_max = {frame.n_max}")
    values = np.asarray(values, dtype=complex)
    fit, *_ = np.linalg.lstsq(frame.T[:, : M + 1], values, rcond=None)
    return fit


def measured_error_sq(frame: DenseFrame, psi) -> float:
    """Squared relative projection distance 1 - q/||a||^2 with v = T a and
    q = <v, B^{-1} v> = ||L^{-1} v||^2, read from the forward substitution
    of B's Cholesky factor L alone (the clipped eigenbasis division where
    the factorization breaks down).

    Exact (up to the dense solve) even though the projection itself has an
    infinite coefficient tail; only the stored block of psi enters.
    """
    a = frame.coefficients_of(psi)
    norm_sq = float(np.vdot(a, a).real)
    if norm_sq == 0.0:
        raise ValueError("measured error undefined for the zero state")
    v = frame.T @ a
    B, L = frame._gram_factor()
    if L is None:
        q = float(np.vdot(v, _clipped_solve(B, v)).real)
    else:
        y = _forward_substitute(L, v)
        q = float(np.vdot(y, y).real)
    return max(0.0, 1.0 - q / norm_sq)


def quadrature_coefficient(psi: FockVector, n: int, p: float, Q: int) -> complex:
    """Trapezoid approximation of the circle Fourier integral for a_n:

        a_n ~ sqrt(n! / (p^n e^{-p})) * (1/Q) sum_q e^{i n theta_q} Psi(sqrt(p) e^{i theta_q}).

    Exact whenever no stored mode m != n satisfies (m - n) mod Q = 0; a
    warning is emitted when that aliasing condition is violated.
    """
    if not isinstance(psi, FockVector):
        psi = FockVector(psi)
    n = check_order(n, "n")
    Q = check_grid_size(Q)
    p = check_mean_number(p)
    aliased = [
        m for m in range(len(psi)) if m != n and (m - n) % Q == 0
    ]
    if aliased:
        warnings.warn(
            f"quadrature with Q = {Q} points aliases modes {aliased[:4]} onto "
            f"n = {n}; increase Q past the state order",
            RuntimeWarning,
            stacklevel=2,
        )
    theta = 2.0 * np.pi * np.arange(Q) / Q
    zq = math.sqrt(p) * np.exp(1j * theta)
    vals = evaluate(psi, zq)
    s = complex(np.mean(np.exp(1j * n * theta) * vals))
    if s == 0:
        return 0.0 + 0.0j
    log_mag = 0.5 * (gammaln(n + 1.0) - n * math.log(p) + p) + math.log(abs(s))
    with np.errstate(over="ignore"):
        mag = np.exp(log_mag)
    if np.isinf(mag):
        raise ValueError(f"quadrature coefficient at n = {n} is "
                         f"10^{log_mag / math.log(10):.1f}, past double range")
    return mag * (s / abs(s))


def _sampled_rows(N: int) -> np.ndarray:
    """The indices r = i N // 128, i < 128, of a grid of N points past
    N = 128, and every index up to it: the rows dense_eig_check reads and
    the points at which `phaseframe validate` checks the kernels."""
    count = min(N, _EIG_ROWS)
    return np.arange(count) * N // count


def dense_eig_check(grid: PhaseGrid) -> float:
    """Max residual |(B F - F diag(lhat))_{rn}| over rows r of B and every
    Fourier column n, F = fourier_matrix(N), with row r of B built pairwise
    from cs_overlap and lhat from the series.  Row r of B F is the FFT of
    row r of B over sqrt(N).  Every row is read up to N = 128, and past that
    the 128 rows r = i N // 128, in blocks of about fock._BLOCK elements: no
    N x N array is formed at any N, and a row costs O(N log N)."""
    if not isinstance(grid, PhaseGrid):
        raise ValueError("grid must be a PhaseGrid")
    N, zs = grid.N, grid.points()
    lhat = folded_weight(grid.p, N)
    rows = _sampled_rows(N)
    step = max(1, _BLOCK // N)
    blocks = np.split(rows, range(step, len(rows), step))
    return float(max(
        np.abs(np.fft.fft(cs_overlap(zs[r, None], zs[None, :])) - _roots(r, N, N) * lhat).max()
        for r in blocks
    )) / math.sqrt(N)
