import math
import tracemalloc

import numpy as np
import pytest

from phaseframe import (
    ExactReconstructor,
    FockVector,
    PartialReconstructor,
    PhaseGrid,
    aliasing_excess,
    coherent_amplitude,
    cs_overlap,
    evaluate,
    filtered_error_bound,
    folded_weight,
    mode_weight,
    sample,
    truncation_epsilon,
)
from phaseframe.fock import scale_by_exp
from phaseframe.oracle import DenseFrame, dense_project
from phaseframe.spectral import default_n_max, log_folded_weight, log_mode_weight


def unit_state(rng, length):
    a = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return FockVector(a / np.linalg.norm(a))


# -- interpolation kernel -----------------------------------------------------


def test_lagrange_delta_property():
    for N in (1, 2, 4, 8, 16, 32):
        for p in (N / 2.0, float(N)):
            rec = PartialReconstructor(N=N, p=p)
            pts = PhaseGrid(N, p).points()
            ks = range(N) if N <= 8 else (0, 1, N // 2, N - 1)
            for k in ks:
                vals = rec.lagrange_kernel(k, pts)
                expect = np.zeros(N)
                expect[k] = 1.0
                assert np.max(np.abs(vals - expect)) < 1e-12, (N, p, k)


def test_single_point_kernel_is_coherent_overlap():
    rec = PartialReconstructor(N=1, p=4.0)
    z0 = PhaseGrid(1, 4.0).point(0)
    for z in (0.0, 1.0 + 1.0j, -2.5, 3.0j):
        assert rec.lagrange_kernel(0, z) == pytest.approx(cs_overlap(z, z0), abs=1e-13)


# -- alias coefficients -------------------------------------------------------


def test_alias_of_in_band_basis_mode():
    N, p, n = 6, 4.0, 2
    rec = PartialReconstructor(N=N, p=p)
    ss = sample(FockVector.basis_state(n), PhaseGrid(N, p))
    ahat = rec.alias_coefficients(ss).coefficients
    nu = aliasing_excess(p, N)
    lam = mode_weight(np.arange(len(ahat)), p, N)
    # in band the mode is attenuated by 1/(1+nu_n)
    assert ahat[n] == pytest.approx(1.0 / (1.0 + nu[n]), rel=1e-12)
    # periodic images carry sqrt-weight ratios of the same class
    expect = ahat[n] * math.sqrt(lam[n + N] / lam[n])
    assert ahat[n + N] == pytest.approx(expect, rel=1e-11)
    # other residue classes hold only root-of-unity rounding noise
    mask = np.mod(np.arange(len(ahat)), N) != n
    assert np.max(np.abs(ahat[mask])) < 1e-14


def test_single_point_alias_is_scaled_coherent_state():
    # one sample can only pin down the component along |z_0>
    p = 3.0
    rec = PartialReconstructor(N=1, p=p)
    rng = np.random.default_rng(97)
    psi = unit_state(rng, 7)
    ss = sample(psi, PhaseGrid(1, p))
    ahat = rec.alias_coefficients(ss).coefficients
    n = np.arange(len(ahat))
    expect = coherent_amplitude(n, math.sqrt(p)) * ss.values[0]
    assert np.allclose(ahat, expect, rtol=1e-12, atol=1e-15)


def test_alias_matches_dense_projection():
    rng = np.random.default_rng(31)
    for _ in range(8):
        N = int(rng.integers(2, 13))
        p = float(rng.uniform(N / 2.0, N))
        L = int(rng.integers(1, 61))
        psi = unit_state(rng, L)
        grid = PhaseGrid(N, p)
        n_max = max(L - 1, N - 1, 80)
        rec = PartialReconstructor(N=N, p=p, n_max=n_max)
        ahat = rec.alias_coefficients(sample(psi, grid)).coefficients
        ref = dense_project(DenseFrame.build(grid, n_max), psi)
        scale = float(np.max(np.abs(ref)))
        assert np.allclose(ahat, ref, rtol=1e-8, atol=1e-12 * scale), (N, p, L)


def test_alias_periodization_identity():
    rng = np.random.default_rng(37)
    for N, p in ((3, 2.0), (7, 5.5), (12, 9.0)):
        data = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        rec = PartialReconstructor(N=N, p=p)
        ahat = rec.alias_coefficients(data).coefficients
        lam = mode_weight(np.arange(len(ahat)), p, N)
        n = np.arange(len(ahat) - N)
        lhs = ahat[n + N] * np.sqrt(lam[n])
        rhs = ahat[n] * np.sqrt(lam[n + N])
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300), (N, p)


def test_alias_of_zero_samples_is_zero():
    rec = PartialReconstructor(N=4, p=2.0)
    out = rec.alias_coefficients(np.zeros(4, dtype=complex))
    assert np.all(out.coefficients == 0)


# -- projector ----------------------------------------------------------------


def test_projector_elements():
    N, p = 5, 3.0
    rec = PartialReconstructor(N=N, p=p)
    nu = aliasing_excess(p, N)
    for n in range(N):
        assert rec.projector_element(n, n) == pytest.approx(
            1.0 / (1.0 + nu[n]), rel=1e-12
        )
    assert rec.projector_element(0, 3) == 0.0
    assert rec.projector_element(2, 7) == pytest.approx(
        rec.projector_element(7, 2), rel=1e-14
    )
    lam = mode_weight(np.arange(8), p, N)
    lhat = folded_weight(p, N)
    assert rec.projector_element(2, 7) == pytest.approx(
        math.sqrt(lam[2] * lam[7]) / lhat[2], rel=1e-12
    )


def test_projector_matrix_against_dense_oracle():
    N, p = 4, 2.5
    rec = PartialReconstructor(N=N, p=p)
    P = rec.projector_matrix()
    size = P.shape[0]
    frame = DenseFrame.build(PhaseGrid(N, p), size - 1)
    ref = frame.T.conj().T @ np.linalg.solve(frame.gram(), frame.T)
    assert np.max(np.abs(ref.imag)) < 1e-12
    assert np.allclose(P, ref.real, atol=1e-10)
    # idempotent and of rank N once the materialized block covers the mass
    assert np.max(np.abs(P @ P - P)) < 1e-10
    assert np.trace(P) == pytest.approx(N, abs=1e-10)


def _dense_projector(rec, size):
    """The projector block by its defining formula, all size x size at once."""
    plan = rec._plan()
    j = np.mod(np.arange(size), plan.grid.N)
    half = 0.5 * log_mode_weight(np.arange(size), plan.grid.p, plan.grid.N)
    out = np.zeros((size, size))
    same = np.equal.outer(j, j)
    logvals = np.add.outer(half, half) - plan.log_folded[j][None, :]
    out[same] = np.exp(logvals[same])
    return out


@pytest.mark.parametrize(
    "N,p,size", [(1, 2.0, 40), (3, 5.0, None), (8, 6.0, 100), (5, 80.0, 257)]
)
def test_projector_matrix_matches_dense_formula(N, p, size):
    rec = PartialReconstructor(N=N, p=p)
    P = rec.projector_matrix(size)
    assert np.array_equal(P, _dense_projector(rec, P.shape[0]))


def test_projector_matrix_memory_is_the_output():
    rec = PartialReconstructor(N=7, p=30.0)
    size = 1000
    tracemalloc.start()
    try:
        P = rec.projector_matrix(size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert P.shape == (size, size)
    assert peak <= 1.25 * P.nbytes


# -- reconstruction -----------------------------------------------------------


def test_reconstruct_interpolates_arbitrary_data():
    rng = np.random.default_rng(41)
    N, p = 6, 4.0
    data = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    rec = PartialReconstructor(N=N, p=p)
    pts = PhaseGrid(N, p).points()
    assert np.allclose(rec.reconstruct(data, pts), data, rtol=1e-11, atol=1e-13)


def test_reconstruct_matches_kernel_sum():
    rng = np.random.default_rng(47)
    N, p = 4, 3.0
    data = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    rec = PartialReconstructor(N=N, p=p)
    z = 0.9 - 1.3j
    ker = sum(rec.lagrange_kernel(k, z) * data[k] for k in range(N))
    assert rec.reconstruct(data, z) == pytest.approx(ker, rel=1e-11)


def test_reconstruct_matches_alias_evaluation_off_grid():
    rng = np.random.default_rng(43)
    N, p = 5, 3.5
    psi = unit_state(rng, 12)
    ss = sample(psi, PhaseGrid(N, p))
    rec = PartialReconstructor(N=N, p=p)
    zs = np.array([0.3, 1.2 - 0.8j, 2.0j, -1.0 - 1.0j])
    direct = rec.reconstruct(ss, zs)
    via_state = evaluate(rec.fit(ss).state(), zs)
    assert np.allclose(direct, via_state, rtol=1e-10, atol=1e-13)


# -- filtered pipeline --------------------------------------------------------


def test_filter_factors_are_one_plus_excess():
    N, p = 8, 5.0
    rec = PartialReconstructor(N=N, p=p)
    f = rec.filter_factors()
    assert f.shape == (N,)
    assert np.allclose(f, 1.0 + aliasing_excess(p, N), rtol=1e-13)
    assert np.all(np.diff(f) < 0)
    assert rec.filter_factors(3).shape == (4,)
    with pytest.raises(ValueError, match="below the grid size"):
        rec.filter_factors(8)


def test_filtered_equals_exact_for_band_limited_states():
    rng = np.random.default_rng(53)
    for N, p in ((4, 2.0), (9, 6.0), (16, 12.0)):
        psi = unit_state(rng, N)
        ss = sample(psi, PhaseGrid(N, p))
        filt = PartialReconstructor(N=N, p=p).reconstruct_filtered(ss)
        assert np.max(np.abs(filt.coefficients - psi.coefficients)) < 1e-12
        ex = ExactReconstructor(N=N, p=p, M=N - 1).dft_coefficients(ss)
        assert np.max(np.abs(filt.coefficients - ex.coefficients)) < 1e-13


def test_filtered_error_within_declared_budget():
    rng = np.random.default_rng(59)
    N, p = 6, 3.0
    psi = unit_state(rng, N + 20)
    ss = sample(psi, PhaseGrid(N, p))
    filt = PartialReconstructor(N=N, p=p).reconstruct_filtered(ss)
    assert len(filt) == N
    eps = truncation_epsilon(psi, N - 1)
    bound = filtered_error_bound(eps, p, N)
    diff = np.concatenate(
        [filt.coefficients - psi.coefficients[:N], -psi.coefficients[N:]]
    )
    assert float(np.sum(np.abs(diff) ** 2)) <= bound + 1e-12


def test_filtered_is_the_exact_dft_recovery():
    # (1 + nu_n) sqrt(lam_n) / (lhat_n sqrt(N)) = 1 / sqrt(N lam_n): the
    # filtered pipeline and the oversampled DFT recovery are one computation
    rng = np.random.default_rng(61)
    for N, p, M in ((4, 2.0, 3), (9, 6.0, 5), (64, 40.0, 63), (97, 300.0, 60)):
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        filt = PartialReconstructor(N=N, p=p).reconstruct_filtered(x, M)
        ex = ExactReconstructor(N=N, p=p, M=M).dft_coefficients(x)
        assert np.array_equal(filt.coefficients, ex.coefficients), (N, p, M)


def test_filtered_rejects_m_at_or_above_n():
    rec = PartialReconstructor(N=4, p=2.0)
    with pytest.raises(ValueError, match="M < N"):
        rec.reconstruct_filtered(np.zeros(4, dtype=complex), 4)
    out = rec.reconstruct_filtered(np.zeros(4, dtype=complex), 1)
    assert len(out) == 2


def _all_aliases(N, p, X):
    """Every alias n = 0..default n_max, materialized in full."""
    n = np.arange(default_n_max(p, N) + 1)
    log_folded = log_folded_weight(p, N)
    logmag = 0.5 * log_mode_weight(n, p, N) - log_folded[n % N] - 0.5 * math.log(N)
    S = N * np.fft.ifft(X, axis=-1)
    return scale_by_exp(S[..., n % N], logmag)


@pytest.mark.filterwarnings("error")
def test_transform_skips_only_aliases_that_underflow():
    # at N = 1024, p = 512 the alias scale sqrt(lam_n)/lhat_{n mod N}
    # underflows past n ~ 2300 of 11206; those aliases are exact zeros
    N, p = 1024, 512.0
    rng = np.random.default_rng(67)
    rows = rng.standard_normal((2, N)) + 1j * rng.standard_normal((2, N))
    X = np.stack([rows[0], np.zeros(N), 1e100 * rows[1]])
    got = PartialReconstructor(N=N, p=p).transform(X)
    ref = _all_aliases(N, p, X)
    assert got.shape == ref.shape == (3, default_n_max(p, N) + 1)
    assert np.array_equal(got.view(float), ref.view(float))
    # the cutoff is taken: most of the first row is zero, yet the 1e100 row
    # still carries nonzero aliases beyond it
    last = [np.flatnonzero(row)[-1] for row in (ref[0], ref[2])]
    assert last[0] < ref.shape[1] // 2
    assert last[1] > last[0]
    one = PartialReconstructor(N=N, p=p).transform(X[0])
    assert np.array_equal(one.view(float), ref[:1].view(float))


# -- guard rails --------------------------------------------------------------


def test_rejects_undersized_materialization():
    with pytest.raises(ValueError, match="residue period"):
        PartialReconstructor(N=8, p=4.0, n_max=5).fit(np.zeros(8, dtype=complex))


def test_rejects_wrong_sample_length_and_grid():
    rec = PartialReconstructor(N=4, p=2.0)
    with pytest.raises(ValueError, match="expected 4 samples"):
        rec.fit(np.zeros(3, dtype=complex))
    ss = sample(FockVector.basis_state(0), PhaseGrid(4, 3.0))
    with pytest.raises(ValueError, match="does not match"):
        rec.fit(ss)
