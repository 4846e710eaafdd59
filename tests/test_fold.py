"""The log-space fold behind both spectral series: referees and stop rows.

lhat_j = sum_q lam_{j+qN} and nu_n = sum_{u>=1} n! p^{uN}/(n+uN)! are summed
by spectral._log_fold.  Here they are held to a 50-digit mpmath sum where
the dense oracle cannot run (p >= 1e5, N >= p + 40 sqrt(p)), to closed
forms at N = 1, and to the stop rows of the per-q loops they replaced.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from phaseframe import (
    ExactReconstructor,
    FockVector,
    PartialReconstructor,
    PhaseGrid,
    folded_weight,
    sample,
    spectral,
)
from phaseframe.spectral import (
    SERIES_TOL,
    _log_excess,
    _log_fold,
    log_aliasing_excess,
    log_folded_weight,
)

U = 2.0**-53
# A log term sums parts of magnitude up to p, m log p and lgamma(m + 1).
# Each part and each of the three roundings that combine them is off by at
# most about u times its size, gammaln by a few u: so an absolute log error
# of at most ROUNDING_C * u * (sum of part sizes), with ROUNDING_C = 4.
ROUNDING_C = 4.0


def lhat_log_error(p, m):
    return ROUNDING_C * U * (p + m * math.log(p) + math.lgamma(m + 1.0))


def nu_log_error(p, n, m):
    parts = math.lgamma(n + 1.0) + math.lgamma(m + 1.0) + (m - n) * math.log(p)
    return ROUNDING_C * U * parts


def _top_index(p, N):
    """Largest m whose term can matter: past p + 40 sqrt(p) (and past the
    first wrap n + N of nu) every term is e^-800 below its column's peak."""
    return max(p + 40.0 * math.sqrt(p), 2.0 * N) + N


def _mp_log_series(p, N, col, start, log_term):
    """50-digit log of sum_q exp(log_term(P, m, q)), m = col + qN, over every
    q >= start that reaches within 40 sqrt(p) of p, plus two rows past."""
    with mpmath.workdps(50):
        P, root = mpmath.mpf(p), math.sqrt(p)
        q0 = max(start, math.floor((p - 40.0 * root - col) / N))
        q1 = max(q0, math.ceil((p + 40.0 * root - col) / N)) + 2
        terms = [log_term(P, col + q * N, q) for q in range(q0, q1 + 1)]
        top = max(terms)
        return top + mpmath.log(mpmath.fsum(mpmath.exp(t - top) for t in terms))


@pytest.mark.parametrize("p,N", [(1e5, 64), (512.0, 2048), (1e5, 112_650)])
def test_fold_matches_50_digit_reference(p, N):
    # (1e5, 64): far past the dense oracle's reach; (512, 2048) and
    # (1e5, 112650): N >= p + 40 sqrt(p), where lhat_j underflows for high j
    assert p >= 1e5 or N >= p + 40.0 * math.sqrt(p)
    cols = sorted({0, 1, N // 3, N // 2, N - 1})
    log_lhat = log_folded_weight(p, N)[cols]
    log_nu = log_aliasing_excess(p, N)[cols]
    m = _top_index(p, N)
    for col, got_l, got_n in zip(cols, log_lhat, log_nu):
        ref_l = _mp_log_series(
            p, N, col, 0,
            lambda P, m, q: mpmath.log(N) - P + m * mpmath.log(P) - mpmath.loggamma(m + 1),
        )
        ref_n = _mp_log_series(
            p, N, col, 1,
            lambda P, m, q, n=col: mpmath.loggamma(n + 1) - mpmath.loggamma(m + 1)
            + q * N * mpmath.log(P),
        )
        assert abs(float(ref_l - got_l)) <= lhat_log_error(p, m), col
        assert abs(float(ref_n - got_n)) <= nu_log_error(p, col, m), col


@pytest.mark.parametrize("p", [1e5, 3e5, 1e6])
def test_single_point_fold_closed_forms(p):
    # N = 1: lhat_0 = sum_m lam_m = 1 and nu_0 = e^p - 1, so log nu_0 = p
    m = _top_index(p, 1)
    assert abs(float(log_folded_weight(p, 1)[0])) <= lhat_log_error(p, m)
    assert abs(float(log_aliasing_excess(p, 1)[0]) - p) <= nu_log_error(p, 0, m)


def test_folded_weight_has_no_step_cap():
    # p / N = 3e5 rows lie past the old 200 000-step cap
    out = folded_weight(3e5, 1)
    assert out.shape == (1,) and np.isfinite(out[0])
    assert abs(out[0] - 1.0) <= lhat_log_error(3e5, _top_index(3e5, 1))


def test_large_p_folds_in_vectorised_blocks():
    # O(sqrt(p) + N) terms: about 1.7e4 here, where the per-q loop took 1e5
    # steps (1.9 s); best of three against a bound far above the ~2 ms seen
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        folded_weight(1e5, 1)
        log_aliasing_excess(1e5, 1)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1


def test_fold_rejects_inexact_indices():
    with pytest.raises(ValueError, match="2\\^52"):
        log_folded_weight(1e16, 4)


@settings(max_examples=60, deadline=None)
@given(
    log10_p=st.floats(min_value=-3.0, max_value=7.0),
    N=st.integers(min_value=1, max_value=4096),
)
def test_fold_is_finite_on_wide_grids(log10_p, N):
    p = 10.0**log10_p
    try:
        log_lhat = log_folded_weight(p, N)
        log_nu = log_aliasing_excess(p, N)
    except ValueError as exc:  # an explicit error is acceptable, a NaN is not
        assert str(exc)
        return
    assert log_lhat.shape == log_nu.shape == (N,)
    assert np.all(np.isfinite(log_lhat)) and np.all(np.isfinite(log_nu))
    assert np.all(np.isfinite(folded_weight(p, N)))


# -- stop rows against the per-q loops that the fold replaced ----------------


def _loop_lhat_stop(p, N, tol):
    """The old folded_weight loop, returning the row q it stopped at."""
    j = np.arange(N)
    total = np.zeros(N)
    q = 0
    while True:
        mf = (q * N + j).astype(float)
        terms = np.exp(math.log(N) - p + mf * math.log(p) - gammaln(mf + 1.0))
        total += terms
        if q * N > p and np.all(terms <= tol * total):
            return q
        q += 1


def _loop_nu_stop(p, N, tol):
    """The old log-excess loop, returning the u it stopped at."""
    log_tol = math.log(tol)
    n = np.arange(N, dtype=float)
    base = gammaln(n + 1.0)
    accum = np.full(N, -np.inf)
    u = 1
    while True:
        lt = base - gammaln(n + u * N + 1.0) + u * N * math.log(p)
        accum = np.logaddexp(accum, lt)
        if u * N > p and np.all(lt <= log_tol + accum):
            return u
        u += 1


SWEEP_GRIDS = [(2**e, 2.0**k * 2**e) for e in range(9) for k in range(-2, 13)]


# the per-q loops run at the fold's own stop tolerance
@pytest.mark.parametrize("tol", [SERIES_TOL])
def test_stop_rows_match_the_per_q_loops(tol, monkeypatch):
    # every grid of the sweep benchmark: N = 1..256, p = N/4..4096 N
    assert len(SWEEP_GRIDS) == 135
    stops = []

    def recorded(*args):
        out = _log_fold(*args)
        stops.append(out[1])
        return out

    monkeypatch.setattr(spectral, "_log_fold", recorded)
    for N, p in SWEEP_GRIDS:
        log_folded_weight(p, N)
        log_aliasing_excess(p, N)
        assert stops[-2:] == [_loop_lhat_stop(p, N, tol), _loop_nu_stop(p, N, tol)], (N, p)


# -- one column: nu_0 alone --------------------------------------------------

# far corners: one point, a p past the head bound, N past p + 40 sqrt(p)
EXTREME_GRIDS = [(1, 1e7), (64, 262144.0), (16384, 8192.0), (2048, 2048.0),
                 (400, 0.5), (1, 1e-3), (4096, 3e6), (1024, 900.0)]
# log nu_0 near 0, where one term past column 0's own stop could still move
# the last bit of the sum
NEAR_ZERO_GRIDS = [(N, float(p)) for N in (1, 2, 3, 8) for p in np.linspace(0.3, 1.2, 19)]


def test_one_column_is_the_full_folds_entry_0():
    grids = SWEEP_GRIDS + EXTREME_GRIDS + NEAR_ZERO_GRIDS
    for N, p in grids:
        one = _log_excess(p, N, 1)
        assert one.shape == (1,)
        assert one[0] == log_aliasing_excess(p, N)[0], (N, p)
    assert any(abs(_log_excess(p, N, 1)[0]) < 0.1 for N, p in NEAR_ZERO_GRIDS)


def test_one_column_rejects_inexact_indices():
    with pytest.raises(ValueError, match="2\\^52") as full:
        log_aliasing_excess(1e16, 4)
    with pytest.raises(ValueError, match="2\\^52") as one:
        _log_excess(1e16, 4, 1)
    assert str(one.value) == str(full.value)


@pytest.mark.parametrize("p,N", [(1e5, 64), (512.0, 2048), (1e5, 112_650), (0.7, 1), (40.0, 8)])
def test_one_column_matches_50_digit_reference(p, N):
    ref = _mp_log_series(
        p, N, 0, 1,
        lambda P, m, q: -mpmath.loggamma(m + 1) + q * N * mpmath.log(P),
    )
    got = _log_excess(p, N, 1)[0]
    assert abs(float(ref - got)) <= nu_log_error(p, 0, _top_index(p, N))


# -- partial reconstruction past the linear underflow ------------------------


@pytest.mark.filterwarnings("error")
def test_partial_recovers_where_lhat_underflows():
    # at N = 2048, p = 512 (N >= p + 40 sqrt(p)) hundreds of lhat_j are 0 in
    # linear space; the alias scale reads log lhat, so the aliases are finite
    # and on the Poisson window equal the exact route's bit for bit
    N, p = 2048, 512.0
    assert np.count_nonzero(folded_weight(p, N) == 0.0) > 400
    lo, M = math.ceil(p - 8.0 * math.sqrt(p)), round(p + 8.0 * math.sqrt(p))
    rng = np.random.default_rng(71)
    a = np.zeros(M + 1, dtype=complex)
    a[lo:] = rng.standard_normal(M + 1 - lo) + 1j * rng.standard_normal(M + 1 - lo)
    a /= np.linalg.norm(a)
    values = sample(FockVector(a), PhaseGrid(N, p)).values
    aliases = PartialReconstructor(N=N, p=p).transform(values)[0]
    exact = ExactReconstructor(N=N, p=p, M=M).transform(values)[0]
    assert np.all(np.isfinite(aliases))
    assert np.array_equal(aliases[lo : M + 1], exact[lo:])
    # criterion 01's coefficient floor; about 2e-10 is seen
    assert np.max(np.abs(aliases[lo : M + 1] - a[lo:])) < 1e-9
