"""The FFT routes of the production DFTs against the dense oracle builds.

Prime and non-power-of-two grid sizes exercise the general FFT kernels, and
states longer than N exercise the fold of several modes onto one residue
class before the FFT.
"""

import math
import tracemalloc

import numpy as np
import pytest

from phaseframe import ExactReconstructor, FockVector, PhaseGrid, mode_weight, sample
from phaseframe.oracle import DenseFrame, fourier_matrix
from phaseframe.spectral import build_overlap, overlap_from_points

U = 2.0**-53  # unit roundoff
EPS = np.finfo(float).eps
GRIDS = [(N, r * N) for N in (97, 257) for r in (1.0, 4.0)]


def unit_coefficients(rng, length):
    a = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return a / np.linalg.norm(a)


@pytest.mark.parametrize("N,p", GRIDS)
def test_sample_matches_dense_frame(N, p):
    rng = np.random.default_rng(N)
    length = 3 * N + 5  # every residue class holds three or four modes
    a = unit_coefficients(rng, length)
    grid = PhaseGrid(N, p)
    T = DenseFrame.build(grid, length - 1).T
    got = sample(FockVector(a), grid).values
    # scale of the sample sums; the dense sums err by up to gamma_len of it,
    # the fold and the FFT by O(u log N) of it
    scale = np.max(np.sum(np.abs(T * a[None, :]), axis=1))
    assert np.max(np.abs(got - T @ a)) <= (length + N) * U * scale


@pytest.mark.parametrize("N,p", GRIDS)
def test_dft_eigenvalues_match_dense_dft(N, p):
    overlap = build_overlap(PhaseGrid(N, p))
    dense = (math.sqrt(N) * fourier_matrix(N) @ overlap.first_row).real
    got = overlap.dft_eigenvalues()
    assert np.max(np.abs(got - dense)) <= N * U * np.max(overlap.eigenvalues)


@pytest.mark.parametrize("N", [97, 257])
def test_solve_matches_dense_solve(N):
    grid = PhaseGrid(N, 4.0 * N)
    overlap = build_overlap(grid)
    cond = overlap.condition()
    assert cond < 1e6
    rng = np.random.default_rng(N + 1)
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    got = overlap.solve(v)
    B = overlap_from_points(grid)
    dense = np.linalg.solve(B, v)
    # solve divides by the series eigenvalues, while the dense B is built
    # pairwise from the rounded points; the two differ by the series/DFT
    # defect and by O(N u), both relative to ||B||.  Perturbation theory then
    # bounds the gap by cond * (defect + the O(N u) rounding of either solve).
    rel = overlap.series_dft_defect() + N * U
    assert np.max(np.abs(got - dense)) <= cond * rel * np.max(np.abs(dense))
    residual = B @ got - v
    bound = rel * np.max(overlap.eigenvalues) * np.linalg.norm(got)
    assert np.max(np.abs(residual)) <= bound


def test_large_grid_exact_round_trip_stays_small():
    # one dense 16384 x 694 root-of-unity matrix alone is 182 MB
    N, p, M = 16384, 512.0, 693
    lo = math.ceil(p - 8.0 * math.sqrt(p))
    rng = np.random.default_rng(16384)
    a = np.zeros(M + 1, dtype=complex)
    a[lo:] = unit_coefficients(rng, M + 1 - lo)
    tracemalloc.start()
    try:
        samples = sample(FockVector(a), PhaseGrid(N, p))
        got = ExactReconstructor(N=N, p=p, M=M).dft_coefficients(samples).coefficients
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
    gain = 1.0 / np.sqrt(N * mode_weight(np.arange(M + 1), p, N))
    tol = 128.0 * EPS * N * gain
    assert np.all(np.abs(got - a)[lo:] <= tol[lo:])
