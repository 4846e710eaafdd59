"""Truncation measures, reconstruction error bounds and the droplet function.

The squared relative reconstruction error of the N-sample projection obeys

    E^2 <= nu_0/(1+nu_0) + 2 eps sqrt(1-eps^2) + eps^2 (2+nu_0)/(1+nu_0),

where eps = eps_N(psi) is the relative coefficient mass beyond mode N-1.  For
p below the critical radius p0(N) the nu_0 terms are O(N^{-N}) and the bound
collapses to 2 eps sqrt(1-eps^2) + 2 eps^2.  The filtered variant obeys
E^2 <= eps^2 (1 + (1+nu_0)^2).

The droplet P_M(p) = e^{-p} sum_{m<=M} p^m/m! is the coherent expectation of
the truncation projector; it steps from 1 to 0 around p_c = M+1 with width
sqrt(M+1), and eps_N^2 of a coherent state equals 1 - P_{N-1}(p).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import gammaln

from ._validation import check_grid_size, check_order
from .fock import CoherentPoint, FockVector, PhaseGrid
from .oracle import DenseFrame, OracleSizeError, measured_error_sq
from .spectral import aliasing_excess, build_overlap, critical_radius, default_n_max

__all__ = [
    "truncation_epsilon",
    "coherent_epsilon",
    "droplet",
    "error_bound",
    "filtered_error_bound",
    "asymptotic_error_bound",
    "ErrorReport",
    "assess",
]

_MEASURE_N_CAP = 32
_MEASURE_LEN_CAP = 400
# unit roundoff of IEEE double precision
_U = np.finfo(float).eps / 2


def truncation_epsilon(psi: FockVector, M: int) -> float:
    """Relative coefficient mass eps_{M+1} beyond mode M.

    For a declared power-law tail the analytic integral bound of the unstored
    mass is added, so the result is an upper estimate in that case.  The zero
    state has no meaningful truncation measure and is rejected.
    """
    if not isinstance(psi, FockVector):
        psi = FockVector(psi)
    M = check_order(M, "M")
    norm_sq = psi.norm_sq()
    if norm_sq == 0.0:
        raise ValueError("truncation measure undefined for the zero state")
    stored_tail = float(np.sum(np.abs(psi.coefficients[M + 1 :]) ** 2))
    declared = 0.0
    if psi.tail is not None:
        declared = psi.tail.mass_beyond(max(M, psi.order))
    ratio = (stored_tail + declared) / norm_sq
    return math.sqrt(min(1.0, ratio))


def _poisson_tails(M: int, p) -> tuple[float, float]:
    """(P_M(p), 1 - P_M(p)) for an order M and a radius p >= 0.

    The tail on the far side of the step p_c = M+1 is summed term by term in
    log space and the near one is its complement, so the small tail keeps its
    full relative precision.  The terms fall at ratio p/m above M and m/p at
    and below M, so span = 45 sqrt(max(p, M+1)) + 60 terms next to M hold
    all but e^{-span^2/2 max(p, M+1)} < e^{-1000} of the sum.
    """
    M = check_order(M, "M")
    if isinstance(p, numbers.Real):
        p = float(p)
    else:
        raise ValueError(f"p must be a real scalar, got {p!r}")
    if not (math.isfinite(p) and p >= 0.0):
        raise ValueError(f"p must be finite and >= 0, got {p}")
    if p == 0.0:
        return 1.0, 0.0
    span = int(math.ceil(45.0 * math.sqrt(max(p, M + 1.0)) + 60.0))
    if p < M + 1.0:
        m = np.arange(M + 1, M + 1 + span, dtype=float)
    else:
        m = np.arange(max(0, M + 1 - span), M + 1, dtype=float)
    far = float(np.sum(np.exp(-p + m * math.log(p) - gammaln(m + 1.0))))
    if p < M + 1.0:
        return max(0.0, 1.0 - far), far
    total = min(1.0, far)
    return total, 1.0 - total


def droplet(M: int, p: float) -> float:
    """P_M(p) = e^{-p} sum_{m=0}^{M} p^m/m!, evaluated in log space.

    Integer-order regularized incomplete gamma as an explicit Poisson sum;
    decreases monotonically from 1 at p = 0 towards 0, stepping near
    p_c = M+1 with width sqrt(M+1).  Left of the step the complement (upper
    tail) is summed instead, so the plateau at 1 is flat to the last bit.
    Either sum takes O(sqrt(max(p, M))) terms.
    """
    return _poisson_tails(M, p)[0]


def coherent_epsilon(p=None, N=None, *, zeta=None) -> float:
    """Squared truncation mass eps_N^2 of a coherent state: 1 - P_{N-1}(p).

    Accepts either the mean number p directly or the coherent label zeta
    (then p = |zeta|^2).  Left of the step the upper tail is summed directly,
    so a tiny eps_N^2 keeps its relative precision instead of rounding to 0.
    """
    if zeta is not None:
        if p is not None:
            raise ValueError("pass either p or zeta, not both")
        z = zeta.z if isinstance(zeta, CoherentPoint) else complex(zeta)
        p = abs(z) ** 2
    if p is None:
        raise ValueError("missing mean number p (or zeta)")
    N = check_grid_size(N)
    return _poisson_tails(N - 1, float(p))[1]


def _resolve_nu0(p, N, nu0) -> float:
    if nu0 is None:
        return float(aliasing_excess(p, N)[0])
    nu0 = float(nu0)
    if not (math.isfinite(nu0) and nu0 >= 0.0):
        raise ValueError(f"nu0 must be finite and >= 0, got {nu0}")
    return nu0


def _check_eps(eps) -> float:
    eps = float(eps)
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    return eps


def error_bound(eps, p, N, nu0=None) -> float:
    """Upper bound on the squared relative projection error E^2."""
    eps = _check_eps(eps)
    nu0 = _resolve_nu0(p, N, nu0)
    comp = math.sqrt(max(0.0, 1.0 - eps * eps))
    return nu0 / (1.0 + nu0) + 2.0 * eps * comp + eps * eps * (2.0 + nu0) / (1.0 + nu0)


def asymptotic_error_bound(eps) -> float:
    """Small-radius form of the bound: 2 eps sqrt(1-eps^2) + 2 eps^2, valid up
    to O(N^{-N}) terms for p below the critical radius."""
    eps = _check_eps(eps)
    comp = math.sqrt(max(0.0, 1.0 - eps * eps))
    return 2.0 * eps * comp + 2.0 * eps * eps


def filtered_error_bound(eps, p, N, nu0=None) -> float:
    """Upper bound eps^2 (1 + (1+nu_0)^2) on the squared error of the
    truncate-and-filter pipeline."""
    eps = _check_eps(eps)
    nu0 = _resolve_nu0(p, N, nu0)
    return eps * eps * (1.0 + (1.0 + nu0) ** 2)


@dataclass
class ErrorReport:
    """Error budget of reconstructing one state from one grid."""

    epsilon_N: float
    nu0: float
    p0: float
    bound: float
    bound_filtered: float
    measured: float | None
    asymptotic: bool

    def to_json(self) -> dict:
        return asdict(self)


def assess(
    psi: FockVector,
    grid: PhaseGrid,
    measure: bool | None = None,
) -> ErrorReport:
    """Full error budget for reconstructing psi from grid samples.

    measure=None runs the dense oracle measurement automatically when the
    problem is small (N <= 32 and state length <= 400); True forces it and
    raises OracleSizeError beyond the caps; False skips it.  The measured
    value is the squared projection distance of the stored block; when the
    truncation measure is exact (no declared tail) it is checked against the
    bound.
    """
    if not isinstance(psi, FockVector):
        psi = FockVector(psi)
    if not isinstance(grid, PhaseGrid):
        raise ValueError("grid must be a PhaseGrid")
    eps = truncation_epsilon(psi, grid.N - 1)
    nu0 = float(aliasing_excess(grid.p, grid.N)[0])
    p0 = critical_radius(grid.N)
    bound = error_bound(eps, grid.p, grid.N, nu0=nu0)
    bound_f = filtered_error_bound(eps, grid.p, grid.N, nu0=nu0)

    small = grid.N <= _MEASURE_N_CAP and len(psi) <= _MEASURE_LEN_CAP
    measured = None
    if measure is True and not small:
        raise OracleSizeError(
            f"measurement caps are N <= {_MEASURE_N_CAP} and state length "
            f"<= {_MEASURE_LEN_CAP}; got N = {grid.N}, length = {len(psi)}"
        )
    if (measure is None and small) or measure is True:
        n_max = max(default_n_max(grid.p, grid.N), psi.order)
        frame = DenseFrame.build(grid, min(n_max, 2000))
        measured = measured_error_sq(frame, psi)
        excess = measured - bound
        # the allowance is never below 1e-9: only a larger excess needs cond(B)
        if psi.tail is None and excess > 1e-9 and excess > _measure_slack(grid):
            raise ArithmeticError(
                f"measured squared error {measured:.6e} exceeds the bound "
                f"{bound:.6e}; the spectral series or the oracle is broken"
            )
    return ErrorReport(eps, nu0, p0, bound, bound_f, measured, grid.p < p0)


def _measure_slack(grid: PhaseGrid) -> float:
    """Rounding allowance, never below 1e-9, of the dense measurement
    1 - q/||a||^2 with q = <v, B^{-1} v> and v = T a.

    Rounding model (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.4, gamma_n = n u / (1 - n u)): the Cholesky solve returns c with
    (B + dB) c = v and |dB| <= gamma_{3N+1} |R*| |R|, and
    || |R*| |R| ||_2 <= N ||B||_2.  To first order dB moves q by
    |c* dB c| <= ||dB||_2 ||c||^2 <= ||dB||_2 q / min(lhat), and
    q <= ||a||^2, so the measurement errs by at most N gamma_{3N+1} cond(B)
    with cond(B) = max(lhat) / min(lhat).
    """
    n = 3 * grid.N + 1
    gamma = n * _U / (1.0 - n * _U)
    return max(1e-9, grid.N * gamma * build_overlap(grid).condition())
