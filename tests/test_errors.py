import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.stats

from phaseframe import (
    CoherentPoint,
    ErrorReport,
    FockVector,
    PhaseGrid,
    TailProfile,
    aliasing_excess,
    assess,
    asymptotic_error_bound,
    coherent_epsilon,
    critical_radius,
    droplet,
    error_bound,
    filtered_error_bound,
    truncation_epsilon,
)
from phaseframe import errors, spectral
from phaseframe.oracle import OracleSizeError
from phaseframe.spectral import build_overlap


# -- truncation measure -------------------------------------------------------


def test_truncation_epsilon_basics():
    psi = FockVector([1.0, 0.0, 1.0])
    assert truncation_epsilon(psi, 2) == 0.0
    assert truncation_epsilon(psi, 5) == 0.0
    assert truncation_epsilon(psi, 1) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert truncation_epsilon(psi, 0) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    with pytest.raises(ValueError):
        truncation_epsilon(FockVector([0.0]), 0)
    with pytest.raises(ValueError):
        truncation_epsilon(psi, -1)


def test_truncation_epsilon_includes_declared_tail():
    psi = FockVector([1.0, 1.0, 1.0], TailProfile(0.1, 1.0))
    # stored mass 3, declared integral bound C^2/M beyond M = 10
    expect = math.sqrt((0.01 / 10.0) / 3.0)
    assert truncation_epsilon(psi, 10) == pytest.approx(expect, rel=1e-12)
    # without the profile the same cut has no mass at all
    bare = FockVector([1.0, 1.0, 1.0])
    assert truncation_epsilon(bare, 10) == 0.0


def test_truncation_epsilon_never_exceeds_one():
    psi = FockVector([1e-8, 1.0], TailProfile(50.0, 0.75))
    assert truncation_epsilon(psi, 1) <= 1.0


# -- droplet ------------------------------------------------------------------


def test_droplet_matches_poisson_cdf():
    rng = np.random.default_rng(61)
    for _ in range(40):
        M = int(rng.integers(0, 300))
        p = float(rng.uniform(0.0, 2.0 * (M + 1)))
        assert droplet(M, p) == pytest.approx(
            float(scipy.stats.poisson.cdf(M, p)), abs=5e-13
        ), (M, p)


def test_droplet_plateau_and_monotonicity():
    for M in (10, 100):
        ps = np.linspace(0.0, 2.0 * (M + 1), 801)
        vals = np.array([droplet(M, p) for p in ps])
        assert np.all(np.diff(vals) <= 0.0)
        assert vals[0] == 1.0
        assert droplet(M, 1e-12) == pytest.approx(1.0, abs=1e-12)


def test_droplet_step_location_and_width():
    for M in (100, 1000):
        pc = M + 1.0
        sc = math.sqrt(M + 1.0)
        assert droplet(M, pc - 3.0 * sc) > 0.99
        assert droplet(M, pc + 3.0 * sc) < 0.01
        assert 0.4 < droplet(M, pc) < 0.6


def test_droplet_derivative_is_negative_poisson_term():
    # dP_M/dp = -e^{-p} p^M / M!
    M, p, h = 20, 15.0, 1e-4
    fd = (droplet(M, p + h) - droplet(M, p - h)) / (2.0 * h)
    expect = -math.exp(-p + M * math.log(p) - math.lgamma(M + 1.0))
    assert fd == pytest.approx(expect, rel=1e-6)


def test_droplet_work_is_bounded_right_of_the_step():
    # scipy's incomplete gamma at M = 10^7 allocates no O(M) array
    tracemalloc.start()
    try:
        droplet(10**7, 1.01e7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _small_tail_40_digits(M, p):
    """The tail on the far side of the step p_c = M + 1 to 40 digits: the
    upper tail 1 - P_M(p) left of it, P_M(p) at and right of it.

    Up to M = 10^4 it is a direct sum outward from m = M, stopped once a term
    is below 1e-45 of the sum (the terms fall geometrically from there on).
    Above that, mpmath's upper incomplete gamma Q(M + 1, p) = P_M(p), which
    converges at the step where the direct sum would be slow; its lower
    gamma raises NoConvergence at (10^6, 9e5), so no deep left tail is taken
    at large M.
    """
    tiny = mpmath.mpf(10) ** -45
    with mpmath.workdps(40):
        p_ = mpmath.mpf(p)
        if M > 10**4:
            q = mpmath.gammainc(M + 1, p_, mpmath.inf, regularized=True)
            return float(q if p >= M + 1 else 1 - q)
        term = mpmath.exp(-p_ + M * mpmath.log(p_) - mpmath.loggamma(M + 1))
        if p < M + 1:  # m = M + 1, M + 2, ...
            total, m = mpmath.mpf(0), M
            while True:
                m += 1
                term *= p_ / m
                total += term
                if term < total * tiny:
                    return float(total)
        total, m = term, M  # m = M, M - 1, ..., 0
        while m > 0 and term >= total * tiny:
            term *= m / p_
            m -= 1
            total += term
        return float(total)


def test_droplet_window_matches_incomplete_gamma():
    # P_M(p) = Q(M + 1, p) and 1 - P_M(p) against 40 digits: at p = 0, on
    # the plateau (the upper tail underflows, P is exactly 1), in deep tails
    # on both sides of the step, and at the step for M = 10^6 and 10^7
    assert errors._poisson_tails(0, 0.0) == (1.0, 0.0)
    assert errors._poisson_tails(1000, 0.0) == (1.0, 0.0)
    cases = [
        (1000, 10.0), (40, 5.0), (300, 40.0), (2000, 1200.0), (10**4, 8000.0),
        (0, 30.0), (10, 200.0), (2569, 4686.0), (10**4, 12500.0),
        (10**6, 1.0001e6), (10**6, 10**6 + 0.5), (10**6, 0.999e6),
        (10**7, 1.01e7), (10**7, 10**7 + 0.5), (10**7, 0.9999e7),
    ]
    for M, p in cases:
        want = _small_tail_40_digits(M, p)
        lower, upper = errors._poisson_tails(M, p)
        small, large = (upper, lower) if p < M + 1 else (lower, upper)
        # the rounding model of tests/test_fold.py: parts of size p, M log p
        # and lgamma(M + 1), each off by a few units of roundoff
        rel = 4.0 * 2.0**-53 * (p + M * math.log(p) + math.lgamma(M + 1.0))
        assert small == pytest.approx(want, rel=rel, abs=0.0), (M, p)
        # the near tail is the complement of the small one, rounded once
        assert large == 1.0 - small, (M, p)


def test_droplet_rejects_bad_arguments():
    with pytest.raises(ValueError):
        droplet(-1, 1.0)
    with pytest.raises(ValueError):
        droplet(3, -0.5)
    with pytest.raises(ValueError):
        droplet(3, math.nan)
    with pytest.raises(ValueError):
        droplet(3, "p")
    # one bad entry of an array, a complex p or a string p
    for p in ([1.0, -0.5], [1.0, math.nan], [math.inf, 1.0], [1.0 + 0.0j], 1j, "2.0"):
        with pytest.raises(ValueError):
            droplet(3, p)
        with pytest.raises(ValueError):
            coherent_epsilon(p, 4)


@pytest.mark.parametrize("M", [10, 100, 1000])
def test_droplet_and_coherent_epsilon_take_arrays(M):
    ps = np.linspace(0.0, 1200.0, 241)  # droplet --p-range 0:1200:241
    for radii in (ps, ps[:240].reshape(12, 20)):
        for f in (lambda r: droplet(M, r), lambda r: coherent_epsilon(r, M + 1)):
            got = f(radii)
            assert got.shape == radii.shape
            want = np.array([f(p) for p in radii.flat]).reshape(radii.shape)
            assert np.array_equal(got, want)
    for p in (3, 3.0, np.float64(3.0), np.array(3.0)):
        assert type(droplet(M, p)) is float
        assert type(coherent_epsilon(p, M + 1)) is float


# -- coherent truncation mass -------------------------------------------------


def test_coherent_epsilon_identity_and_oracle():
    for p, N in ((80.0, 100), (120.0, 100), (5.0, 8), (0.1, 3)):
        got = coherent_epsilon(p, N)
        assert got == pytest.approx(1.0 - droplet(N - 1, p), abs=1e-16)
        assert got == pytest.approx(float(scipy.stats.poisson.sf(N - 1, p)), abs=1e-12)
    assert coherent_epsilon(0.0, 5) == 0.0


@pytest.mark.parametrize("p,N", [(1.0, 30), (5.0, 40), (0.5, 10)])
def test_coherent_epsilon_keeps_tiny_tails(p, N):
    # the upper tail is summed directly, not formed as 1 - P_{N-1}(p),
    # which rounds 1.43e-33 and 8.55e-23 to 0
    with mpmath.workdps(60):  # Poisson sf(N - 1, p)
        want = float(mpmath.gammainc(N, 0, p, regularized=True))
    assert coherent_epsilon(p, N) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_coherent_epsilon_accepts_label():
    z = 3.0 * np.exp(0.7j)
    assert coherent_epsilon(zeta=z, N=12) == pytest.approx(
        coherent_epsilon(9.0, 12), rel=1e-10
    )
    assert coherent_epsilon(zeta=CoherentPoint(z), N=12) == coherent_epsilon(zeta=z, N=12)
    with pytest.raises(ValueError):
        coherent_epsilon(4.0, 12, zeta=z)
    with pytest.raises(ValueError):
        coherent_epsilon(None, 12)


def test_coherent_epsilon_label_past_double_range_names_it():
    with pytest.raises(ValueError, match=r"\|z\|\^2 is past double range"):
        coherent_epsilon(zeta=1e200, N=4)


# -- bounds -------------------------------------------------------------------


def test_error_bound_limits():
    nu0 = float(aliasing_excess(4.0, 6)[0])
    assert error_bound(0.0, 4.0, 6) == pytest.approx(nu0 / (1.0 + nu0), rel=1e-13)
    assert error_bound(1.0, 4.0, 6) == pytest.approx(2.0, rel=1e-13)
    assert asymptotic_error_bound(0.0) == 0.0
    assert asymptotic_error_bound(1.0) == pytest.approx(2.0)
    assert filtered_error_bound(0.0, 4.0, 6) == 0.0
    assert filtered_error_bound(0.5, 4.0, 6, nu0=0.0) == pytest.approx(0.5, rel=1e-15)


def test_error_bound_collapses_below_critical_radius():
    N = 12
    p = 0.25 * critical_radius(N)
    nu0 = float(aliasing_excess(p, N)[0])
    for eps in (0.0, 0.05, 0.3, 0.9):
        full = error_bound(eps, p, N, nu0=nu0)
        asym = asymptotic_error_bound(eps)
        assert 0.0 <= full - asym <= 2.0 * nu0 + 1e-15


def test_bounds_reject_out_of_range_eps():
    with pytest.raises(ValueError):
        error_bound(1.5, 4.0, 6)
    with pytest.raises(ValueError):
        error_bound(-0.1, 4.0, 6)
    with pytest.raises(ValueError):
        filtered_error_bound(2.0, 4.0, 6)
    with pytest.raises(ValueError):
        error_bound(0.5, 4.0, 6, nu0=-1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "p,message",
    [
        (512.0, r"nu0 = 10\^222\.36 on the grid N = 1, p = 512: \(1 \+ nu0\)\^2 in"),
        (1024.0, r"nu0 = 10\^444\.72 on the grid N = 1, p = 1024: \(1 \+ nu0\)\^2 in"),
    ],
)
def test_assess_names_a_nu0_past_double_range(p, message):
    # at N = 1, nu0 = e^p - 1: (1 + nu0)^2 overflows at p = 512 and nu0
    # itself at p = 1024, so no bound can be formed on either grid
    with pytest.raises(ValueError, match=message):
        assess(FockVector([1.0, 0.5]), PhaseGrid(1, p))


@pytest.mark.filterwarnings("error")
def test_filtered_bound_names_an_oversized_nu0():
    with pytest.raises(ValueError, match=r"nu0 = 10\^200\.00: \(1 \+ nu0\)\^2"):
        filtered_error_bound(0.1, 4.0, 6, nu0=1e200)
    # the projection bound needs only nu0/(1+nu0) and stays finite
    expected = 1.0 + 0.2 * math.sqrt(0.99) + 0.01
    assert error_bound(0.1, 4.0, 6, nu0=1e200) == pytest.approx(expected, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_default_bounds_past_double_range():
    # at N = 1, p = 1024 the grid's own nu0 = e^1024 - 1 is past double
    # range: the projection bound is its nu0 -> inf limit, not NaN, and the
    # filtered bound names the true log10(nu0) = 1024 / ln 10
    assert error_bound(0.1, 1024.0, 1) == 1.0 + 0.2 * math.sqrt(0.99) + 0.01
    assert error_bound(0.0, 1024.0, 1) == 1.0
    with pytest.raises(ValueError, match=r"nu0 = 10\^444\.72: \(1 \+ nu0\)\^2"):
        filtered_error_bound(0.1, 1024.0, 1)


def test_the_budget_folds_one_column(monkeypatch):
    # the bound reads nu_0 alone, so no budget sums the other N - 1 columns
    widths = []
    fold = spectral._log_fold

    def recorded(*args):
        out = fold(*args)
        widths.append(len(out[0]))
        return out

    monkeypatch.setattr(spectral, "_log_fold", recorded)
    psi = FockVector(np.ones(40) / math.sqrt(40))
    for N, p in [(16, 9.0), (256, 300.0), (1024, 512.0)]:
        assess(psi, PhaseGrid(N, p), measure=False)
        error_bound(0.1, p, N)
        filtered_error_bound(0.1, p, N)
    assert len(widths) == 9 and set(widths) == {1}


# -- full budget --------------------------------------------------------------


def test_assess_report_fields_and_json():
    rng = np.random.default_rng(67)
    a = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    psi = FockVector(a / np.linalg.norm(a))
    grid = PhaseGrid(8, 5.0)
    rep = assess(psi, grid)
    assert isinstance(rep, ErrorReport)
    assert rep.epsilon_N == pytest.approx(truncation_epsilon(psi, 7), rel=1e-15)
    assert rep.nu0 == pytest.approx(float(aliasing_excess(5.0, 8)[0]), rel=1e-13)
    assert rep.p0 == pytest.approx(critical_radius(8), rel=1e-14)
    assert rep.measured is not None
    assert 0.0 <= rep.measured <= rep.bound + 1e-9
    assert rep.bound_filtered == pytest.approx(
        filtered_error_bound(rep.epsilon_N, 5.0, 8, nu0=rep.nu0), rel=1e-13
    )
    assert rep.asymptotic == (5.0 < rep.p0)
    payload = json.loads(json.dumps(rep.to_json()))
    assert sorted(payload) == [
        "asymptotic",
        "bound",
        "bound_filtered",
        "epsilon_N",
        "measured",
        "nu0",
        "p0",
    ]


def test_assess_sharp_case_for_band_limited_state():
    # e_0 realizes the nu_0/(1+nu_0) term of the bound exactly
    rep = assess(FockVector.basis_state(0), PhaseGrid(8, 5.0))
    assert rep.epsilon_N == 0.0
    assert rep.measured == pytest.approx(rep.nu0 / (1.0 + rep.nu0), abs=1e-12)


def test_assess_measure_control():
    psi = FockVector.basis_state(0)
    big = PhaseGrid(64, 10.0)
    assert assess(psi, big).measured is None
    with pytest.raises(OracleSizeError):
        assess(psi, big, measure=True)
    assert assess(psi, PhaseGrid(4, 2.0), measure=False).measured is None


def test_assess_allows_for_the_dense_solve_on_ill_conditioned_grids():
    # cond(B) ~ 2e16 here: the dense Gram solve's rounding, not the series,
    # puts the measured error of these band-limited states far above their
    # bound of ~7e-17, and the self-check must not call that a broken series
    rng = np.random.default_rng(71)
    grid = PhaseGrid(32, 4.0)
    assert build_overlap(grid).condition() > 1e15
    for _ in range(4):
        a = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        rep = assess(FockVector(a / np.linalg.norm(a)), grid)
        assert rep.epsilon_N == 0.0
        assert rep.measured is not None


@pytest.mark.parametrize("N,p", [(4, 2.0), (32, 4.0), (64, 40.0), (1024, 512.0), (256, 0.5)])
def test_measure_slack_reads_the_condition_number_from_the_fold(N, p):
    # cond(B) = exp(max - min) of log lhat is max(lhat)/min(lhat) up to
    # rounding, and inf without a warning where min(lhat) underflows (256, 0.5)
    grid = PhaseGrid(N, p)
    u = np.finfo(float).eps / 2
    gamma = (3 * N + 1) * u / (1.0 - (3 * N + 1) * u)
    want = max(1e-9, N * gamma * build_overlap(grid).condition())
    assert errors._measure_slack(grid) == pytest.approx(want, rel=1e-11)
    assert math.isinf(want) == (N == 256)


def test_assess_self_check_still_flags_an_excess_on_a_well_conditioned_grid(
    monkeypatch,
):
    # e_0 meets the bound exactly, so 1e-8 on top must exceed the 1e-9 floor
    grid = PhaseGrid(4, 2.0)
    assert build_overlap(grid).condition() < 1e3
    measured = errors.measured_error_sq
    monkeypatch.setattr(
        errors, "measured_error_sq", lambda frame, psi: measured(frame, psi) + 1e-8
    )
    with pytest.raises(ArithmeticError, match="exceeds the bound"):
        assess(FockVector.basis_state(0), grid)
