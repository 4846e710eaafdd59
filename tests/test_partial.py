import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

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
from phaseframe import partial as partial_module
from phaseframe import spectral as spectral_module
from phaseframe.exact import recover
from phaseframe.fock import _LOG_TINY, scale_by_exp
from phaseframe.oracle import DenseFrame, dense_project
from phaseframe.partial import _alias_bound, _filter_bound
from phaseframe.spectral import log_folded_weight, log_mode_weight


U = np.finfo(float).eps / 2


def _n_max(p, N):
    """The partial plan's last mode, ceil(p + 20 sqrt(p) + 10 N)."""
    return math.ceil(p + 20.0 * math.sqrt(p) + 10.0 * N)


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
        state = PartialReconstructor(N=N, p=p).alias_coefficients(sample(psi, grid))
        ahat = state.padded(n_max + 1).coefficients[: n_max + 1]
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
    N, p, size = 4, 2.5, 76
    rec = PartialReconstructor(N=N, p=p)
    P = rec.projector_matrix(size)
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
    # None: the partial plan's length, _n_max + 1
    size = _n_max(p, N) + 1 if size is None else size
    rec = PartialReconstructor(N=N, p=p)
    P = rec.projector_matrix(size)
    assert P.shape == (size, size)
    assert np.array_equal(P, _dense_projector(rec, size))


@pytest.mark.parametrize("size", [2.7, "3", 0, -1, None])
def test_projector_matrix_rejects_a_size_that_is_not_a_positive_integer(size):
    with pytest.raises(ValueError, match="size must be"):
        PartialReconstructor(N=3, p=5.0).projector_matrix(size)


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
    with pytest.raises(ValueError, match="in-band recovery needs M < N"):
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
    """Every alias n = 0.._n_max, materialized in full."""
    n = np.arange(_n_max(p, N) + 1)
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
    assert got.shape == ref.shape == (3, _n_max(p, N) + 1)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    # the cutoff is taken: most of the first row is zero, yet the 1e100 row
    # still carries nonzero aliases beyond it
    last = [np.flatnonzero(row)[-1] for row in (ref[0], ref[2])]
    assert last[0] < ref.shape[1] // 2
    assert last[1] > last[0]
    one = PartialReconstructor(N=N, p=p).transform(X[0])
    assert np.array_equal(one.view(np.uint64), ref[:1].view(np.uint64))


# -- recovery kernel and the alias bound ---------------------------------------


def _first_recover(values, log_scale):
    """The recovery as first written: every mode n < len(log_scale) scaled
    from S_{n mod N} by scale_by_exp, then the finite check; returns the
    coefficients or the error message."""
    N = values.shape[-1]
    n = np.arange(len(log_scale))
    with np.errstate(all="ignore"):
        S = N * np.fft.ifft(values, axis=-1)
        out = scale_by_exp(S[..., n % N], log_scale)
    bad = ~np.isfinite(out).reshape(-1, out.shape[-1]).all(axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        return ("coefficients must contain only finite entries; first not at "
                f"mode n = {k}, scale 10^{log_scale[k] / math.log(10):.1f}")
    return out


def _alias_scale(N, p, n_max):
    """log(sqrt(lam_n) / (lhat_{n mod N} sqrt(N))) for every n = 0..n_max."""
    n = np.arange(n_max + 1)
    return (0.5 * log_mode_weight(n, p, N) - log_folded_weight(p, N)[n % N]
            - 0.5 * math.log(N))


def _dft_scale(N, p, M):
    return -0.5 * (math.log(N) + log_mode_weight(np.arange(M + 1), p, N))


def _outcome(route):
    try:
        out = route()
    except ValueError as err:
        return str(err)
    return out.coefficients if isinstance(out, FockVector) else out


def _same(got, ref):
    """Equal messages, or equal float64 views with equal sign bits (array_equal
    alone takes -0.0 for 0.0)."""
    if isinstance(got, str) or isinstance(ref, str):
        return got == ref
    got, ref = got.view(float), ref.view(float)
    return np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


def _kernel_cases():
    rng = np.random.default_rng(71)
    for N, p in ((1, 5.0), (8, 3.0), (97, 40.0), (1024, 512.0), (2048, 512.0)):
        rows = rng.standard_normal((2, N)) + 1j * rng.standard_normal((2, N))
        # tiny real negative samples: S_j = a - 0.0i, a < 0, and a dead tail
        tiny = np.conj(-1e-300 * np.abs(rows[1].real) + 0j)
        X = np.stack([rows[0], np.zeros(N), 1e100 * rows[1], tiny])
        if N == 1024:
            # S is 1.024e303 at residue 512 and exactly 0 elsewhere, so its
            # aliases reach n = 2560, close to the bound at the largest |S|
            X = np.vstack([X, 1e300 * (-1.0) ** np.arange(N)])
        yield N, p, X


@pytest.mark.parametrize("N,p,X", list(_kernel_cases()))
def test_recover_is_bit_identical_to_the_per_mode_formulation(N, p, X):
    # signed zeros included: a dead tail formed as S * 0.0 instead of
    # 0.0 * S/|S| flips them where S_j = a - 0.0i with a < 0 (the tiny rows)
    rec = PartialReconstructor(N=N, p=p)
    n_max = _n_max(p, N)
    scale = _alias_scale(N, p, n_max)
    ref = _first_recover(X, scale)
    assert _same(_outcome(lambda: rec.transform(X)), ref)
    M = min(N - 1, 1000)
    dft = _dft_scale(N, p, M)
    for k, x in enumerate(X):
        one = _first_recover(x, scale)
        assert isinstance(ref, str) or _same(one, ref[k])
        assert _same(_outcome(lambda: PartialReconstructor(N=N, p=p).fit(x).coef_), one)
        assert _same(_outcome(lambda: rec.alias_coefficients(x)), one)
        filtered = _outcome(lambda: rec.reconstruct_filtered(x, M))
        assert _same(filtered, _first_recover(x, dft))
        exact = _outcome(lambda: ExactReconstructor(N=N, p=p, M=M).transform(x))
        assert _same(exact, _first_recover(x[None, :], dft))


def test_recover_keeps_the_nonfinite_error():
    rng = np.random.default_rng(73)
    for N in (1, 8, 64):
        log_scale = -np.linspace(0.0, 800.0, 5 * N)
        for bad in (np.nan, np.inf, -np.inf, 1e308):
            x = rng.standard_normal(N) + 0j
            x[N // 2] = bad
            for values in (x, np.stack([x, np.zeros(N)])):
                ref = _first_recover(values, log_scale)
                assert _same(_outcome(lambda: recover(values, log_scale)), ref)
            if not np.isfinite(bad):
                # the first bad mode lies below N, so a scale that is -inf
                # from N on (a dead tail, as past the alias bound) agrees
                dead = np.concatenate([log_scale[:N], np.full(4 * N, -np.inf)])
                got = _outcome(lambda: recover(values, dead))
                assert _same(got, ref)
                with pytest.raises(ValueError, match="samples must contain only finite"):
                    PartialReconstructor(N=N, p=2.0).fit(x)


def test_subnormal_residue_is_recovered():
    # 1/|S| overflows for a subnormal S, so S/|S| is formed after scaling by
    # a power of two
    out = PartialReconstructor(N=1, p=5.0).transform([-1e-310])
    n = np.arange(out.shape[-1])
    scale = np.exp(0.5 * log_mode_weight(n, 5.0, 1) - log_folded_weight(5.0, 1)[0])
    assert np.all(np.isfinite(out)) and out[0, 0] != 0
    tiny = np.finfo(float).smallest_subnormal
    assert np.allclose(out[0], -1e-310 * scale, rtol=1e-12, atol=4 * tiny)


def _window_samples(N, p, seed):
    """Samples of a random state on the Poisson window p +- 8 sqrt(p)."""
    lo, hi = math.ceil(p - 8 * math.sqrt(p)), math.floor(p + 8 * math.sqrt(p))
    a = np.zeros(hi + 1, dtype=complex)
    a[lo:] = np.random.default_rng(seed).standard_normal(hi + 1 - lo)
    return sample(FockVector(a), PhaseGrid(N, p)).values


def test_overflow_is_the_named_error_under_warnings_as_errors():
    # the alias scale passes 10^300 within each grid's materialized modes,
    # so recover must name the mode rather than leak numpy's overflow warning
    cases = [
        (16384, 512.0, _window_samples(16384, 512.0, 79)),
        (400, 0.5, np.random.default_rng(31).standard_normal(400) + 0j),
    ]
    for N, p, x in cases:
        ref = _first_recover(x, _alias_scale(N, p, _n_max(p, N)))
        assert ref.startswith("coefficients must contain only finite entries; first not")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                PartialReconstructor(N=N, p=p).fit(x)
        assert str(err.value) == ref
    # the exact route's own warning on such grids is still raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="mode weights below 1e-300"):
            ExactReconstructor(N=400, p=0.5, M=399).fit(cases[1][2])


@settings(max_examples=60, deadline=None)
@given(
    log10_p=st.floats(min_value=-3.0, max_value=6.0),
    N=st.integers(min_value=1, max_value=4096),
)
def test_alias_bound_leaves_only_exact_zeros(log10_p, N):
    p = 10.0**log10_p
    log_folded = log_folded_weight(p, N)
    bound = _alias_bound(p, N, float(np.min(log_folded)))
    assert bound >= N
    # every mode from the bound on, past n_max too, is dead at the largest |S|
    n = np.arange(bound, max(bound, _n_max(p, N)) + 2 * N + 100)
    scale = 0.5 * log_mode_weight(n, p, N) - log_folded[n % N] - 0.5 * math.log(N)
    assert np.all(scale + math.log(np.finfo(float).max) < _LOG_TINY)


def test_partial_transform_reads_only_the_live_weights(monkeypatch):
    # 11,206 aliases at N = 1024, p = 512, of which fewer than 4,000 can be
    # nonzero for any finite samples
    read = []

    def counted(m, p, N):
        read.append(np.size(m))
        return log_mode_weight(m, p, N)

    monkeypatch.setattr(partial_module, "log_mode_weight", counted)
    monkeypatch.setattr(spectral_module, "log_mode_weight", counted)
    N, p = 1024, 512.0
    X = np.random.default_rng(83).standard_normal((4, N)) + 0j
    out = PartialReconstructor(N=N, p=p).transform(X)
    assert out.shape == (4, _n_max(p, N) + 1) == (4, 11206)
    assert 0 < sum(read) < 4000


def test_projector_element_reads_two_weights():
    N, p = 5, 3.0
    rec = PartialReconstructor(N=N, p=p)
    log_folded = log_folded_weight(p, N)
    for m, n in ((0, 0), (2, 7), (7, 2), (4, 19), (13, 3), (1, 2)):
        logw = log_mode_weight(np.arange(max(m, n) + 1), p, N)
        ref = 0.0
        if (n - m) % N == 0:
            ref = float(np.exp(0.5 * (logw[m] + logw[n]) - log_folded[n % N]))
        assert rec.projector_element(m, n) == ref
    tracemalloc.start()
    try:
        value = rec.projector_element(4_000_000, 4_000_000 + 2 * N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 0.0
    assert peak < 1 << 20


# -- guard rails --------------------------------------------------------------


def test_rejects_wrong_sample_length_and_grid():
    rec = PartialReconstructor(N=4, p=2.0)
    with pytest.raises(ValueError, match="expected 4 samples"):
        rec.fit(np.zeros(3, dtype=complex))
    ss = sample(FockVector.basis_state(0), PhaseGrid(4, 3.0))
    with pytest.raises(ValueError, match="does not match"):
        rec.fit(ss)


@pytest.mark.parametrize("N, p", [(256, 128.0), (64, 4.0), (8, 200.0), (1, 5.0), (2048, 2048.0)])
def test_filter_bound_holds_for_any_periodic_weights(N, p):
    """The projection's off-grid series stops at L = _filter_bound(N, s),
    s = sqrt(p) max|z|.  Its tail past L must sum to at most u/L of the
    largest term below L for any weights W_{n mod N}, at the largest |z| and
    at smaller ones.  The worst case takes |W_j| = 1 / (the largest term of
    class j below L), which gives sum_j (tail of class j) / (its largest
    term below L); that is summed here in log space out to the old
    p + 20 sqrt(p) + 10 N length at the largest |z|."""
    r_max = 2.0  # largest |z| / sqrt(p)
    z = r_max * math.sqrt(p) * np.exp(0.3j) * np.array([1.0, 0.5, 0.0])
    L = _filter_bound(N, math.sqrt(p) * float(np.max(np.abs(z))))
    plan = PartialReconstructor(N=N, p=p)._plan()
    assert len(PartialReconstructor._log_filter(plan, z)) == L >= N
    far = _n_max(r_max * p, N) + 1
    rows = -(-far // N)
    n = np.arange(rows * N).reshape(rows, N)
    log_c = log_mode_weight(n, p, N) - log_folded_weight(p, N)[n % N]
    for r in (r_max, 1.0, 0.5):
        x = log_c + n * math.log(r)  # log c_n |w0|^n, |w0| = |z| / sqrt(p)
        top = np.where(n < L, x, -np.inf).max(axis=0)
        tail = logsumexp(np.where(n >= L, x, -np.inf), axis=0)
        assert logsumexp(tail - top) <= math.log(U / L), r
