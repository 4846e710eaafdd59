import math

import numpy as np
import pytest

from phaseframe import (
    ExactReconstructor,
    FockVector,
    PhaseGrid,
    evaluate,
    sample,
)
from phaseframe.oracle import DenseFrame, dense_pseudoinverse_fit


def unit_state(rng, length):
    a = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return FockVector(a / np.linalg.norm(a))


# -- kernel -------------------------------------------------------------------


def test_kernel_delta_at_critical_sampling():
    for N in (1, 2, 3, 8, 16):
        p = max(1.0, 0.75 * N)
        rec = ExactReconstructor(N=N, p=p, M=N - 1)
        pts = PhaseGrid(N, p).points()
        for k in range(N):
            vals = rec.sinc_kernel(k, pts)
            expect = np.zeros(N)
            expect[k] = 1.0
            assert np.max(np.abs(vals - expect)) < 1e-12, (N, k)


def dense_range_projection(grid, M, v):
    """P v = T_M lstsq(T_M, v), the dense referee of resample()."""
    frame = DenseFrame.build(grid, M)
    return frame.T @ dense_pseudoinverse_fit(frame, M, v)


def projector_columns(rec):
    """P e_k for k = 0..N-1, each through resample()."""
    eye = np.eye(rec.N, dtype=complex)
    return np.column_stack([rec.fit(e).resample() for e in eye])


def test_kernel_matches_range_projector_when_oversampled():
    rec = ExactReconstructor(N=10, p=6.0, M=6)
    grid = PhaseGrid(10, 6.0)
    for k in (0, 3, 9):
        e = (np.arange(10) == k).astype(complex)
        column = rec.fit(e).resample()
        assert np.allclose(rec.sinc_kernel(k, grid.points()), column, atol=1e-13)
        assert np.allclose(column, dense_range_projection(grid, 6, e), atol=1e-13)


def test_kernel_at_origin_keeps_only_constant_term():
    rec = ExactReconstructor(N=5, p=3.0, M=4)
    assert rec.sinc_kernel(2, 0.0) == pytest.approx(math.exp(1.5) / 5.0, rel=1e-13)


def test_range_projector_is_orthogonal_projection():
    rec = ExactReconstructor(N=12, p=8.0, M=7)
    P = projector_columns(rec)
    assert np.allclose(P, dense_range_projection(PhaseGrid(12, 8.0), 7, np.eye(12)), atol=1e-13)
    assert np.allclose(P @ P, P, atol=1e-13)
    assert np.allclose(P, P.conj().T, atol=1e-14)
    assert np.trace(P).real == pytest.approx(8.0, abs=1e-12)
    eig = np.linalg.eigvalsh(P)
    assert np.all((np.abs(eig) < 1e-12) | (np.abs(eig - 1.0) < 1e-12))


def test_range_projector_identity_at_critical_sampling():
    rec = ExactReconstructor(N=6, p=4.0, M=5)
    assert np.allclose(projector_columns(rec), np.eye(6), atol=1e-13)
    assert np.allclose(dense_range_projection(PhaseGrid(6, 4.0), 5, np.eye(6)), np.eye(6), atol=1e-13)


# -- coefficient recovery -----------------------------------------------------


def test_basis_mode_round_trip():
    N, p, M = 9, 5.0, 6
    rec = ExactReconstructor(N=N, p=p, M=M)
    for n in range(M + 1):
        ss = sample(FockVector.basis_state(n, M + 1), PhaseGrid(N, p))
        got = rec.dft_coefficients(ss).coefficients
        expect = np.zeros(M + 1)
        expect[n] = 1.0
        assert np.max(np.abs(got - expect)) < 1e-13, n


def test_random_round_trips():
    rng = np.random.default_rng(13)
    for _ in range(20):
        N = int(rng.integers(2, 25))
        M = int(rng.integers(0, N))
        p = float(rng.uniform(N / 2.0, N))
        psi = unit_state(rng, M + 1)
        ss = sample(psi, PhaseGrid(N, p))
        rec = ExactReconstructor(N=N, p=p, M=M).fit(ss)
        assert np.max(np.abs(rec.coef_ - psi.coefficients)) < 1e-10, (N, M, p)


def test_round_trip_matches_pseudoinverse_oracle():
    rng = np.random.default_rng(23)
    N, p, M = 14, 9.0, 9
    psi = unit_state(rng, M + 1)
    grid = PhaseGrid(N, p)
    ss = sample(psi, grid)
    mine = ExactReconstructor(N=N, p=p, M=M).dft_coefficients(ss)
    ref = dense_pseudoinverse_fit(DenseFrame.build(grid, N - 1), M, ss.values)
    assert np.max(np.abs(mine.coefficients - ref)) < 1e-11


def test_predict_matches_direct_evaluation():
    rng = np.random.default_rng(17)
    psi = unit_state(rng, 8)
    N, p = 11, 7.0
    rec = ExactReconstructor(N=N, p=p, M=7).fit(sample(psi, PhaseGrid(N, p)))
    r = np.sqrt(rng.uniform(0.0, 2.0 * p, 20))
    zs = r * np.exp(1j * rng.uniform(-np.pi, np.pi, 20))
    assert np.allclose(rec.predict(zs), evaluate(psi, zs), rtol=1e-10, atol=1e-13)


def test_kernel_route_matches_coefficient_route():
    rng = np.random.default_rng(19)
    psi = unit_state(rng, 5)
    N, p = 9, 6.0
    ss = sample(psi, PhaseGrid(N, p))
    rec = ExactReconstructor(N=N, p=p, M=4).fit(ss)
    zs = np.array([0.0, 0.5 + 0.2j, -2.0j, math.sqrt(2.0 * p)])
    assert np.allclose(rec.reconstruct(ss, zs), rec.predict(zs), rtol=1e-11, atol=1e-14)


def test_resample_projects_inconsistent_data():
    rng = np.random.default_rng(29)
    N, p, M = 10, 7.0, 4
    noise = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    rec = ExactReconstructor(N=N, p=p, M=M).fit(noise)
    assert np.allclose(rec.resample(), dense_range_projection(PhaseGrid(N, p), M, noise), atol=1e-13)
    # consistent samples pass through unchanged
    psi = unit_state(rng, M + 1)
    ss = sample(psi, PhaseGrid(N, p))
    rec.fit(ss)
    assert np.allclose(rec.resample(), ss.values, atol=1e-12)


def test_zero_samples_give_zero_state():
    rec = ExactReconstructor(N=6, p=3.0, M=3)
    out = rec.dft_coefficients(np.zeros(6, dtype=complex))
    assert np.all(out.coefficients == 0)


# -- guard rails --------------------------------------------------------------


def test_rejects_inconsistent_setup():
    with pytest.raises(ValueError, match="strict oversampling"):
        ExactReconstructor(N=4, p=2.0, M=4).fit(np.zeros(4, dtype=complex))
    rec = ExactReconstructor(N=4, p=2.0, M=2)
    with pytest.raises(ValueError, match="expected 4 samples"):
        rec.fit(np.zeros(5, dtype=complex))
    ss = sample(FockVector.basis_state(0), PhaseGrid(5, 2.0))
    with pytest.raises(ValueError, match="does not match"):
        rec.fit(ss)
    with pytest.raises(ValueError):
        ExactReconstructor(N=4, p=2.0, M=-1).fit(np.zeros(4, dtype=complex))


def test_m_defaults_to_n_minus_1_bit_for_bit():
    rng = np.random.default_rng(97)
    N, p = 9, 6.0
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    z = np.array([0.3 - 1.1j, 2.0, 2.4j])
    bare, full = ExactReconstructor(N=N, p=p), ExactReconstructor(N=N, p=p, M=N - 1)
    for route in (
        lambda rec: rec.fit(x).coef_,
        lambda rec: rec.transform(np.vstack([x, 2.0 * x])),
        lambda rec: rec.reconstruct(x, z),
        lambda rec: rec.sinc_kernel(4, z),
        lambda rec: rec.fit(x).resample(),
    ):
        assert route(bare).tobytes() == route(full).tobytes()


def test_underflow_weight_warning():
    # lam_170(p=0.5) is ~1e-354: the top coefficients cannot survive sample
    # rounding and the recovery says so
    rec = ExactReconstructor(N=171, p=0.5, M=170)
    with pytest.warns(RuntimeWarning, match="sample rounding"):
        rec.dft_coefficients(np.zeros(171, dtype=complex))
