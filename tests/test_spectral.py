import cmath
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from phaseframe import (
    PhaseGrid,
    SpectralData,
    aliasing_excess,
    build_overlap,
    critical_radius,
    critical_radius_asymptote,
    folded_weight,
    mode_weight,
)
from phaseframe.oracle import fourier_matrix
from phaseframe.spectral import (
    log_aliasing_excess,
    log_folded_weight,
    overlap_from_points,
)

# Values frozen from an independent 40-digit series evaluation.
FOLDED_0_P1_N4 = 1.5328675039294386
EXCESS_0_P1_N10 = 2.7557319224026994e-07
CRITICAL_10 = 15.227764732987045
CRITICAL_100 = 147.6620351730296


def _n_max(p, N):
    """The partial plan's last mode, ceil(p + 20 sqrt(p) + 10 N)."""
    return math.ceil(p + 20.0 * math.sqrt(p) + 10.0 * N)


# -- mode weights -------------------------------------------------------------


def test_mode_weight_vacuum():
    # lambda_0 = N e^{-p}
    assert mode_weight(0, 1.0, 4) == pytest.approx(4.0 / math.e, rel=1e-14)


def test_mode_weights_are_scaled_poisson():
    p, N = 7.3, 12
    m = np.arange(0, 60)
    lam = mode_weight(m, p, N)
    pmf = scipy.stats.poisson.pmf(m, p)
    assert np.allclose(lam, N * pmf, rtol=1e-12)


def test_weight_partition_of_unity():
    # sum over all modes equals N
    for p, N in ((1.0, 4), (10.0, 7), (50.0, 16), (200.0, 3)):
        m = np.arange(_n_max(p, N) + 1)
        total = float(np.sum(mode_weight(m, p, N)))
        assert total == pytest.approx(N, rel=1e-13)


# -- folded weights -----------------------------------------------------------


def test_folded_weight_single_point_grid():
    # N = 1 folds everything into one eigenvalue equal to the full sum
    out = folded_weight(1.0, 1)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(1.0, rel=1e-14)


def test_folded_weight_frozen_value():
    assert folded_weight(1.0, 4)[0] == pytest.approx(FOLDED_0_P1_N4, rel=1e-13)


def test_folded_weight_conserves_total():
    for p, N in ((1.0, 4), (6.0, 6), (40.0, 9)):
        assert float(np.sum(folded_weight(p, N))) == pytest.approx(N, rel=1e-12)


def test_folded_weight_exceeds_unfolded():
    p, N = 5.0, 8
    lam = mode_weight(np.arange(N), p, N)
    lam_hat = folded_weight(p, N)
    assert np.all(lam_hat > lam)


def test_folded_matches_dft_route():
    # series summation vs eigenvalues of the circulant overlap
    for N in (2, 4, 8, 16, 32):
        for p in (N / 2.0, float(N), 2.0 * N):
            series = folded_weight(p, N)
            dft = build_overlap(PhaseGrid(N, p)).dft_eigenvalues()
            assert np.allclose(series, dft, rtol=1e-11)


# -- aliasing excess ----------------------------------------------------------


def test_excess_single_point_closed_form():
    # N = 1, nu_0 = e^p - 1
    assert aliasing_excess(0.5, 1)[0] == pytest.approx(math.expm1(0.5), rel=1e-13)


def test_excess_frozen_value():
    # leading term 1/10! plus a correction around 1.5e-12
    got = aliasing_excess(1.0, 10)[0]
    assert got == pytest.approx(EXCESS_0_P1_N10, rel=1e-11)
    assert got > 1.0 / math.factorial(10)


def test_excess_consistent_with_weight_ratio():
    # only checkable where the ratio route is not cancellation-limited
    p, N = 6.0, 4
    n = np.arange(N)
    nu = aliasing_excess(p, N)
    lam = mode_weight(n, p, N)
    lam_hat = folded_weight(p, N)
    assert np.allclose(nu, lam_hat / lam - 1.0, rtol=1e-9)


def test_excess_strictly_decreasing_in_log_space():
    rng = np.random.default_rng(2)
    for _ in range(50):
        N = int(rng.integers(2, 65))
        p = float(rng.uniform(0.01, 4.0 * N))
        ln_nu = log_aliasing_excess(p, N)
        assert np.all(np.diff(ln_nu) < 0.0), (p, N)


def test_excess_survives_underflow_regime():
    # nu_0(2, 100) ~ 2^100/100! ~ 1e-128: representable only in logs
    ln_nu = log_aliasing_excess(2.0, 100)
    expect = 100 * math.log(2.0) - math.lgamma(101.0)
    assert ln_nu[0] == pytest.approx(expect, rel=1e-12)
    assert ln_nu[1] < ln_nu[0]


# -- critical radius ----------------------------------------------------------


def test_critical_radius_small_orders():
    assert critical_radius(1) == pytest.approx(2.0, rel=1e-14)
    # ((4!/2!))^{1/2} = sqrt(12)
    assert critical_radius(2) == pytest.approx(math.sqrt(12.0), rel=1e-14)
    assert critical_radius(10) == pytest.approx(CRITICAL_10, rel=1e-12)


def test_critical_radius_asymptote():
    exact = critical_radius(100)
    assert exact == pytest.approx(CRITICAL_100, rel=1e-12)
    approx = critical_radius_asymptote(100)
    assert abs(approx - exact) / exact < 0.005


def test_critical_radius_growth():
    vals = [critical_radius(N) for N in range(1, 40)]
    assert np.all(np.diff(vals) > 0)


# -- circulant overlap --------------------------------------------------------


def test_overlap_single_point_is_identity():
    ov = build_overlap(PhaseGrid(1, 3.0))
    assert ov.first_row[0] == pytest.approx(1.0, abs=1e-15)
    assert ov.eigenvalues[0] == pytest.approx(1.0, rel=1e-13)


def test_overlap_first_row_antipodal():
    # two points at +/- sqrt(p): |<z_0|z_1>| = e^{-2p}
    ov = build_overlap(PhaseGrid(2, 1.0))
    assert ov.first_row[1] == pytest.approx(math.exp(-2.0), rel=1e-13)


def test_overlap_matrix_structure():
    grid = PhaseGrid(8, 3.0)
    B = overlap_from_points(grid)
    assert np.allclose(B, B.conj().T, atol=1e-15)
    assert np.allclose(np.diag(B), 1.0, atol=1e-15)
    # circulant: every row is a shift of the first
    for k in range(8):
        assert np.allclose(B[k], np.roll(B[0], k), atol=1e-15)


def test_overlap_matches_pairwise_route():
    grid = PhaseGrid(9, 5.0)
    fast = build_overlap(grid).first_row
    slow = overlap_from_points(grid)[0]
    assert np.allclose(fast, slow, atol=1e-14)


def _scalar_overlap_loop(grid):
    """The Gram matrix as first written: one cmath.exp per entry, N^2 of them."""
    zs = [complex(z) for z in grid.points()]
    out = np.empty((grid.N, grid.N), dtype=complex)
    for a, z1 in enumerate(zs):
        for b, z2 in enumerate(zs):
            d = z1 - z2
            re = -0.5 * (d.real * d.real + d.imag * d.imag)
            im = z1.real * z2.imag - z1.imag * z2.real
            out[a, b] = cmath.exp(complex(re, im))
    return out


@pytest.mark.parametrize("N,p", [(1, 3.0), (9, 5.0), (64, 40.0), (97, 388.0)])
def test_overlap_from_points_matches_scalar_loop(N, p):
    # the broadcast build may differ from the scalar loop only in the last
    # bits of the complex exp; within 2 ulp per component
    grid = PhaseGrid(N, p)
    got, ref = overlap_from_points(grid), _scalar_overlap_loop(grid)
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(got) - part(ref)) <= 2 * np.spacing(np.abs(part(ref))))


def test_overlap_eigenvectors_are_fourier_modes():
    grid = PhaseGrid(16, 10.0)
    ov = build_overlap(grid)
    B = overlap_from_points(grid)
    F = fourier_matrix(16)
    for j in range(16):
        f = F[:, j]
        assert np.linalg.norm(B @ f - ov.eigenvalues[j] * f, np.inf) < 1e-12


def test_overlap_series_dft_defect_small():
    ov = build_overlap(PhaseGrid(24, 18.0))
    assert ov.series_dft_defect() < 1e-11


def test_spectral_data_build():
    grid = PhaseGrid(6, 4.0)
    data = SpectralData.build(grid, _n_max(4.0, 6))
    assert data.n_max == _n_max(4.0, 6)
    assert data.log_weights.shape == (data.n_max + 1,)
    assert data.folded.shape == (6,)
    assert data.weight_sum_defect() < 1e-12
    assert np.allclose(data.weights, np.exp(data.log_weights), rtol=1e-15)
    assert np.allclose(np.exp(data.log_excess), data.excess, rtol=1e-13)


def test_spectral_data_build_needs_a_length():
    # every plan takes its length from its caller
    with pytest.raises(TypeError):
        SpectralData.build(PhaseGrid(6, 4.0))


@pytest.mark.parametrize("N,p", [(1, 3.0), (6, 4.0), (64, 40.0), (1024, 512.0)])
def test_weight_sum_defect_reads_the_fold(N, p):
    grid = PhaseGrid(N, p)
    short = SpectralData.build(grid, 0).weight_sum_defect()
    long = SpectralData.build(grid, N - 1).weight_sum_defect()
    assert short == long == abs(float(np.sum(folded_weight(p, N))) - N)


def test_weight_sum_defect_at_large_p_stays_small_in_memory():
    # N = 1, p = 10^7: the fold sums O(sqrt(p)) terms in about 0.24 MB, where
    # the mode-by-mode sum over p + 20 sqrt(p) + 10 N weights took over 80 MB.
    # The value is the Poisson weights' own rounding at this p (ROADMAP item 7)
    tracemalloc.start()
    try:
        value = SpectralData.build(PhaseGrid(1, 1e7), 0).weight_sum_defect()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(5.234e-10, rel=1e-2)
    assert peak < 10e6


# -- roots-of-unity helpers ---------------------------------------------------


def test_fourier_matrix_unitary():
    F = fourier_matrix(7)
    assert np.allclose(F.conj().T @ F, np.eye(7), atol=1e-14)


def test_rfm_orthogonality_beyond_band_tracks_mod_n_deltas():
    # modes 0 and 4 coincide on a 4-point grid: the raw gram carries the
    # repeated column, a mod-N delta
    F = fourier_matrix(4)
    cols = F[:, np.mod(np.arange(8), 4)]
    gram = cols.conj().T @ cols
    assert abs(gram[0, 4] - 1.0) < 1e-15
