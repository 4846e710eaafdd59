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
from phaseframe.spectral import build_overlap

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
