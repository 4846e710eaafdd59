import math
import tracemalloc

import numpy as np
import pytest

from phaseframe import (
    FockVector,
    PhaseGrid,
    coherent_amplitude,
    folded_weight,
    mode_weight,
    sample,
)
from phaseframe.oracle import (
    DenseFrame,
    OracleSizeError,
    dense_eig_check,
    dense_project,
    dense_pseudoinverse_fit,
    fourier_matrix,
    measured_error_sq,
    quadrature_coefficient,
)
from phaseframe.spectral import overlap_from_points


def unit_state(rng, length):
    a = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return FockVector(a / np.linalg.norm(a))


# -- frame matrix -------------------------------------------------------------


def test_frame_entries_are_conjugate_amplitudes():
    grid = PhaseGrid(5, 3.0)
    frame = DenseFrame.build(grid, 12)
    pts = grid.points()
    for k in (0, 2, 4):
        for n in (0, 1, 7):
            expect = complex(coherent_amplitude(n, pts[k])).conjugate()
            assert frame.T[k, n] == pytest.approx(expect, abs=1e-14)


def test_frame_columns_carry_mode_weights():
    grid = PhaseGrid(6, 4.0)
    frame = DenseFrame.build(grid, 30)
    colsq = np.sum(np.abs(frame.T) ** 2, axis=0)
    assert np.allclose(colsq, mode_weight(np.arange(31), 4.0, 6), rtol=1e-13)


def test_frame_factorizes_gram_matrix():
    # T T^H reproduces the pairwise overlaps once n_max covers the mass
    grid = PhaseGrid(7, 6.0)
    frame = DenseFrame.build(grid, 120)
    assert np.max(np.abs(frame.T @ frame.T.conj().T - frame.gram())) < 1e-13


def test_size_caps():
    grid = PhaseGrid(4, 2.0)
    with pytest.raises(OracleSizeError):
        DenseFrame.build(grid, 2001)
    frame = DenseFrame.build(grid, 10)
    with pytest.raises(OracleSizeError):
        frame.coefficients_of(FockVector(np.ones(12)))
    with pytest.raises(OracleSizeError):
        dense_pseudoinverse_fit(frame, 11, np.zeros(4))


# -- projection ---------------------------------------------------------------


def test_projection_fixes_grid_coherent_state():
    # |z_0> lies in the sampled span, so projecting it is the identity
    grid = PhaseGrid(5, 4.0)
    psi = FockVector.from_coherent(grid.point(0), 80)
    frame = DenseFrame.build(grid, 79)
    proj = dense_project(frame, psi)
    assert np.max(np.abs(proj - psi.coefficients)) < 1e-10
    assert measured_error_sq(frame, psi) < 1e-12


def test_projection_is_idempotent():
    rng = np.random.default_rng(71)
    frame = DenseFrame.build(PhaseGrid(4, 3.0), 60)
    psi = unit_state(rng, 25)
    once = dense_project(frame, psi)
    twice = dense_project(frame, FockVector(once))
    assert np.max(np.abs(twice - once)) < 1e-11


def test_measured_error_is_projection_distance():
    rng = np.random.default_rng(79)
    frame = DenseFrame.build(PhaseGrid(6, 4.5), 90)
    psi = unit_state(rng, 40)
    got = measured_error_sq(frame, psi)
    proj = dense_project(frame, psi)
    a = frame.coefficients_of(psi)
    direct = float(np.vdot(a - proj, a - proj).real)
    assert got == pytest.approx(direct, abs=1e-12)
    with pytest.raises(ValueError):
        measured_error_sq(frame, FockVector([0.0]))


def test_gram_solve_falls_back_to_clipped_eigenbasis_division():
    # at p = 1e-300 both samples sit at the origin, B has rank one and the
    # Cholesky factorization breaks down
    frame = DenseFrame.build(PhaseGrid(2, 1e-300), 1)
    v = np.array([1.0 + 0.5j, -2.0j])
    with pytest.warns(RuntimeWarning, match="Cholesky failed"):
        got = frame.solve_gram(v)
    vals, vecs = np.linalg.eigh(frame.gram())
    clipped = np.maximum(vals, vals.max() * 1e-18)
    want = vecs @ ((vecs.conj().T @ v) / clipped)
    assert np.array_equal(got, want)
    # the measurement takes q = <v, B^-1 v> from the same division
    psi = FockVector([0.6, 0.8j])
    v = frame.T @ psi.coefficients
    with pytest.warns(RuntimeWarning, match="Cholesky failed"):
        got = measured_error_sq(frame, psi)
    q = np.vdot(v, vecs @ ((vecs.conj().T @ v) / clipped)).real
    assert got == max(0.0, 1.0 - q / np.vdot(psi.coefficients, psi.coefficients).real)


def test_pseudoinverse_fit_recovers_band_limited_data():
    rng = np.random.default_rng(73)
    grid = PhaseGrid(9, 6.0)
    psi = unit_state(rng, 6)
    frame = DenseFrame.build(grid, 8)
    fit = dense_pseudoinverse_fit(frame, 5, sample(psi, grid).values)
    assert np.max(np.abs(fit - psi.coefficients)) < 1e-11


def test_pseudoinverse_residual_is_orthogonal_to_model():
    rng = np.random.default_rng(77)
    frame = DenseFrame.build(PhaseGrid(9, 6.0), 8)
    noise = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    fit = dense_pseudoinverse_fit(frame, 4, noise)
    resid = noise - frame.T[:, :5] @ fit
    assert np.max(np.abs(frame.T[:, :5].conj().T @ resid)) < 1e-12


# -- quadrature ---------------------------------------------------------------


def test_quadrature_matches_coefficients():
    rng = np.random.default_rng(83)
    psi = unit_state(rng, 11)
    for n in (0, 4, 10):
        got = quadrature_coefficient(psi, n, 6.0, 32)
        assert got == pytest.approx(psi.coefficients[n], abs=1e-12)


def test_quadrature_warns_on_aliasing():
    psi = FockVector(np.ones(10) / math.sqrt(10.0))
    with pytest.warns(RuntimeWarning, match="aliases"):
        got = quadrature_coefficient(psi, 1, 4.0, 4)
    # modes 5 and 9 fold onto n = 1, so the value is off by their images
    assert abs(got - psi.coefficients[1]) > 1e-3


def test_quadrature_past_double_range_is_a_named_error():
    # a_500 of the vacuum is 0, but the rounding of the circle mean, scaled
    # by sqrt(500!) e^{1/2}, is far past double range
    with pytest.raises(ValueError, match=r"at n = 500 is 10\^\d+\.\d, past double range"):
        quadrature_coefficient(FockVector.basis_state(0), 500, 1.0, 1024)


# -- eigenstructure -----------------------------------------------------------


def test_dense_eig_check_is_tiny_on_clean_grids():
    assert dense_eig_check(PhaseGrid(16, 10.0)) < 1e-12
    assert dense_eig_check(PhaseGrid(64, 50.0)) < 1e-11


@pytest.mark.parametrize("N,p", [(1, 3.0), (2, 0.1), (7, 6.0), (40, 0.5), (64, 40.0), (128, 64.0)])
def test_dense_eig_check_matches_the_dense_residual(N, p):
    # up to N = 128 every row of B is read, so the FFT rows agree with the
    # dense max |B F - F diag(lhat)| to rounding
    grid = PhaseGrid(N, p)
    lhat = folded_weight(p, N)
    F = fourier_matrix(N)
    dense = np.max(np.abs(overlap_from_points(grid) @ F - F * lhat[None, :]))
    assert abs(dense_eig_check(grid) - dense) <= 1e-14 * np.max(lhat)


def test_dense_eig_check_reads_sampled_rows_without_an_n_by_n_array():
    grid = PhaseGrid(16384, 8192.0)
    tracemalloc.start()
    try:
        defect = dense_eig_check(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one N x N complex matrix is 4.3 GB here
    assert peak < 4_000_000
    assert defect * math.sqrt(grid.N) <= 1e-9 * np.max(folded_weight(grid.p, grid.N))
