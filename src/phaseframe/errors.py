"""Truncation measures, reconstruction error bounds and the droplet function.

The squared relative reconstruction error of the N-sample projection obeys

    E^2 <= nu_0/(1+nu_0) + 2 eps sqrt(1-eps^2) + eps^2 (2+nu_0)/(1+nu_0),

where eps = eps_N(psi) is the relative coefficient mass beyond mode N-1.  The
bound reads the aliasing excess of residue class 0 alone, so nu_0 is folded
as one column of the excess series, not as all N.  For p below the critical
radius p0(N) the nu_0 terms are O(N^{-N}) and the bound collapses to
2 eps sqrt(1-eps^2) + 2 eps^2.  The filtered variant obeys
E^2 <= eps^2 (1 + (1+nu_0)^2).

The droplet P_M(p) = e^{-p} sum_{m<=M} p^m/m! is the coherent expectation of
the truncation projector; it steps from 1 to 0 around p_c = M+1 with width
sqrt(M+1), and eps_N^2 of a coherent state equals 1 - P_{N-1}(p).  Both are
the regularized incomplete gamma function Q(M+1, p) and its complement, taken
from scipy.special.pdtr / pdtrc over a scalar or an array of radii.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import pdtr, pdtrc

from ._validation import check_grid_size, check_order
from .fock import CoherentPoint, FockVector, PhaseGrid
from .oracle import DenseFrame, OracleSizeError, measured_error_sq
from .spectral import _log_excess, critical_radius, log_folded_weight

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


def _poisson_tails(M: int, p):
    """(P_M(p), 1 - P_M(p)) for an order M and radii p >= 0, each a float for
    a scalar p and an array of p's shape otherwise.

    scipy's pdtr / pdtrc give the regularized incomplete gamma functions
    Q(M+1, p) and P(M+1, p).  On each side of the step p_c = M+1 only the
    small tail is taken from them and the other is its complement, so the
    plateau is exactly 1, the curve is monotone, and 1 - P_M(p) is the upper
    tail to within one rounding of 1.
    """
    M = check_order(M, "M")
    radii = np.asarray(p)
    if radii.dtype.kind not in "biuf":
        raise ValueError(f"p must be real, got {p!r}")
    radii = radii.astype(float)
    bad = radii[~(np.isfinite(radii) & (radii >= 0.0))]
    if bad.size:
        raise ValueError(f"p must be finite and >= 0, got {bad[0]}")
    left = radii < M + 1.0
    small = np.where(left, pdtrc(M, radii), pdtr(M, radii))
    lower = np.where(left, 1.0 - small, small)
    upper = np.where(left, small, 1.0 - small)
    if radii.ndim == 0:
        return float(lower), float(upper)
    return lower, upper


def droplet(M: int, p):
    """P_M(p) = e^{-p} sum_{m=0}^{M} p^m/m! for a scalar or an array p.

    The integer-order regularized incomplete gamma Q(M+1, p), from scipy;
    decreases monotonically from 1 at p = 0 towards 0, stepping near
    p_c = M+1 with width sqrt(M+1).  Left of the step it is formed as the
    complement of the upper tail, so the plateau at 1 is flat to the last bit.
    """
    return _poisson_tails(M, p)[0]


def coherent_epsilon(p=None, N=None, *, zeta=None):
    """Squared truncation mass eps_N^2 of a coherent state: 1 - P_{N-1}(p).

    Accepts either the mean number p (a scalar or an array) or the coherent
    label zeta (then p = |zeta|^2).  Left of the step the upper tail is
    computed directly, so a tiny eps_N^2 keeps its relative precision
    instead of rounding to 0.
    """
    if zeta is not None:
        if p is not None:
            raise ValueError("pass either p or zeta, not both")
        p = CoherentPoint(zeta).p
    if p is None:
        raise ValueError("missing mean number p (or zeta)")
    N = check_grid_size(N)
    return _poisson_tails(N - 1, p)[1]


def _resolve_nu0(p, N, nu0) -> tuple[float, float | None]:
    """The grid's (nu0, log nu0), nu0 = inf past double range, or (nu0, None)."""
    if nu0 is None:
        log_nu0 = float(_log_excess(p, N, 1)[0])
        with np.errstate(over="ignore"):
            return float(np.exp(log_nu0)), log_nu0
    nu0 = float(nu0)
    if not (math.isfinite(nu0) and nu0 >= 0.0):
        raise ValueError(f"nu0 must be finite and >= 0, got {nu0}")
    return nu0, None


def _check_square(nu0: float, where: str, log_nu0: float | None = None) -> None:
    """A ValueError giving log10(nu0) and `where` when (1 + nu0)^2, the factor
    of the filtered bound, is past double range (as it is for nu0 = inf)."""
    if not math.isfinite((1.0 + nu0) * (1.0 + nu0)):
        log_nu0 = math.log(nu0) if log_nu0 is None else log_nu0
        raise ValueError(
            f"nu0 = 10^{log_nu0 / math.log(10):.2f}{where}: (1 + nu0)^2 in the "
            "filtered error bound is past double range"
        )


def _check_eps(eps) -> float:
    eps = float(eps)
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    return eps


def error_bound(eps, p, N, nu0=None) -> float:
    """Upper bound on the squared relative projection error E^2; where nu0
    is past double range, its limit 1 + 2 eps sqrt(1-eps^2) + eps^2."""
    eps = _check_eps(eps)
    nu0 = _resolve_nu0(p, N, nu0)[0]
    comp = math.sqrt(max(0.0, 1.0 - eps * eps))
    if math.isinf(nu0):
        return 1.0 + 2.0 * eps * comp + eps * eps
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
    nu0, log_nu0 = _resolve_nu0(p, N, nu0)
    _check_square(nu0, "", log_nu0)
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
    nu0, log_nu0 = _resolve_nu0(grid.p, grid.N, None)
    _check_square(nu0, f" on the grid N = {grid.N}, p = {grid.p:g}", log_nu0)
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
        # v = T a reads only the state's own columns
        measured = measured_error_sq(DenseFrame.build(grid, psi.order), psi)
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
    with cond(B) = max(lhat) / min(lhat) = exp(max - min of log lhat).
    """
    n = 3 * grid.N + 1
    gamma = n * _U / (1.0 - n * _U)
    with np.errstate(over="ignore"):  # cond(B) is inf past double range
        cond = float(np.exp(np.ptp(log_folded_weight(grid.p, grid.N))))
    return max(1e-9, grid.N * gamma * cond)
