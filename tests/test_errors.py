import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.stats

from phaseframe import (
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
from phaseframe import errors
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
    # only the O(sqrt(p)) terms next to m = M are summed, not all M + 1
    tracemalloc.start()
    try:
        droplet(10**7, 1.01e7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_droplet_window_matches_incomplete_gamma():
    # P_M(p) = Q(M + 1, p); the window drops terms below e^-1000 of m = M
    M, p = 10**6, 1.0001e6
    with mpmath.workdps(30):
        want = float(mpmath.gammainc(M + 1, p, mpmath.inf, regularized=True))
    # each log term sums parts of size p, M log p and lgamma(M + 1), each off
    # by a few units of roundoff (the rounding model of tests/test_fold.py)
    rel = 4.0 * 2.0**-53 * (p + M * math.log(p) + math.lgamma(M + 1.0))
    assert droplet(M, p) == pytest.approx(want, rel=rel, abs=0.0)


def test_droplet_rejects_bad_arguments():
    with pytest.raises(ValueError):
        droplet(-1, 1.0)
    with pytest.raises(ValueError):
        droplet(3, -0.5)
    with pytest.raises(ValueError):
        droplet(3, math.nan)
    with pytest.raises(ValueError):
        droplet(3, "p")


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
    with pytest.raises(ValueError):
        coherent_epsilon(4.0, 12, zeta=z)
    with pytest.raises(ValueError):
        coherent_epsilon(None, 12)


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
