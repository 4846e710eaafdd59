"""The off-grid series behind evaluate, predict, reconstruct and both kernels."""

import math

import numpy as np
import pytest

from phaseframe import (
    ExactReconstructor,
    FockVector,
    PartialReconstructor,
    PhaseGrid,
    PolarMesh,
    evaluate,
    sample,
)
from phaseframe import fock

U = np.finfo(float).eps / 2


def _state(rng, lo, hi):
    a = np.zeros(hi + 1, dtype=complex)
    a[lo:] = rng.standard_normal(hi + 1 - lo) + 1j * rng.standard_normal(hi + 1 - lo)
    return FockVector(a / np.linalg.norm(a))


def _routes(N, p, M, seed):
    """The five off-grid routes on one grid, each a function of z."""
    rng = np.random.default_rng(seed)
    psi = _state(rng, 0, M)
    x = sample(psi, PhaseGrid(N, p)).values
    exact = ExactReconstructor(N=N, p=p, M=M)
    partial = PartialReconstructor(N=N, p=p)
    return {
        "evaluate": lambda z: evaluate(psi, z),
        "exact_reconstruct": lambda z: exact.reconstruct(x, z),
        "sinc_kernel": lambda z: exact.sinc_kernel(3, z),
        "partial_reconstruct": lambda z: partial.reconstruct(x, z),
        "lagrange_kernel": lambda z: partial.lagrange_kernel(3, z),
    }


def test_batches_agree_with_single_points():
    # every route here has at least M + 1 = 512 modes, so the window search
    # over 120 points spans at least 3 blocks; rounding may differ between a
    # block and a single point (vector lanes), but only in the last digits
    N, p, M = 512, 256.0, 511
    z = np.linspace(0.0, 2.5, 120) * math.sqrt(p) * np.exp(1j * np.linspace(0, 40, 120))
    assert len(z) > 3 * (fock._BLOCK // (M + 1))
    for name, route in _routes(N, p, M, 11).items():
        batch = route(z)
        single = np.array([route(complex(zz)) for zz in z])
        # the sample routes give an exact 0 where their DFT term is exactly 0
        gap = np.abs(batch - single) / np.maximum(np.abs(single), np.finfo(float).tiny)
        assert gap.max() <= 1e-12, name


@pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 3)])
def test_return_type_follows_z(shape):
    z = np.full(shape, 0.7 - 0.2j)
    for name, route in _routes(6, 4.0, 5, 13).items():
        out = route(z if shape else complex(z))
        if shape:
            assert isinstance(out, np.ndarray) and out.shape == shape, name
        else:
            assert isinstance(out, complex), name


def test_origin_keeps_only_the_first_term():
    psi = FockVector([0.6, 0.8j, 0.0])
    assert evaluate(psi, 0.0) == pytest.approx(0.6, rel=1e-15)
    assert np.allclose(evaluate(psi, np.zeros(4)), 0.6, rtol=1e-15)
    assert evaluate(FockVector([0.0, 0.0]), 1.5 + 2j) == 0
    # a_0 = 0 at the origin: every window of the block is empty, so the block
    # sums no column and gives exact zeros
    assert evaluate(FockVector([0.0, 1.0]), 0.0) == 0
    assert np.array_equal(evaluate(FockVector([0.0, 1.0]), np.zeros(3)), np.zeros(3))


def test_window_ends_at_the_last_kept_mode():
    # the two kept terms cancel to about 1e-16, so a third term under
    # (u/K) max|t| would show if it were summed.  The head side cannot be
    # pinned this way: a term before the window is added ahead of the large
    # terms and is absorbed by them.
    psi = FockVector([1.0, -1.0, 1e-20])
    assert evaluate(psi, 1.0) == evaluate(FockVector([1.0, -1.0]), 1.0)


def test_far_points_stay_finite():
    # the series sums e^{|z|^2/2}-sized terms; the log-space shift keeps
    # them in range, so far-out values underflow to 0 instead of NaN
    z = np.array([30.0, 300.0j, 1e5 * np.exp(0.4j)])
    for name, route in _routes(8, 6.0, 7, 17).items():
        out = route(z)
        assert np.all(np.isfinite(out)), name


# -- a 50-digit reference where the unshifted series overflowed ---------------

REF_N = 2048
REF_P = 2048.0
REF_M = REF_N - 1
REF_POINTS = [
    r * math.sqrt(REF_P) * np.exp(1j * t) for r in (1.4, 1.5, 1.6) for t in (0.3, 2.0)
]


def _mp_dft(mp, values, roots):
    """S_m = sum_k e^{2 pi i k m / n} values_k by radix-2 recursion, with
    roots[j] = e^{2 pi i j / N} and n dividing N."""
    n = len(values)
    if n == 1:
        return list(values)
    even = _mp_dft(mp, values[0::2], roots)
    odd = _mp_dft(mp, values[1::2], roots)
    stride = len(roots) // n
    out = [None] * n
    for k in range(n // 2):
        t = roots[k * stride] * odd[k]
        out[k] = even[k] + t
        out[k + n // 2] = even[k] - t
    return out


def _mp_series(mp, z, log_c, c, weights, N, p):
    """(1/N) e^{(p-|z|^2)/2} sum_n c_n w0^n W_n with w0 = conj(z)/sqrt(p),
    and the same prefactor times sum_n |c_n w0^n W_n| and sum_n |c_n w0^n|.
    Only the contiguous run of n whose double log-magnitude
    log_c_n + n log|w0| lies within 160 of the largest is summed; the rest
    are below e^-160 < 1e-69 of it."""
    zm = mp.mpc(z.real, z.imag)
    w0 = mp.conj(zm) / mp.sqrt(p)
    n = np.arange(len(log_c))
    if z:
        log_mag = log_c + n * math.log(abs(z) / math.sqrt(p))
    else:  # w0^0 = 1 is the only nonzero power
        log_mag = np.where(n == 0, log_c, -np.inf)
    keep = np.flatnonzero(log_mag >= log_mag.max() - 160.0)
    power = w0 ** int(keep[0])
    total = size = size_c = 0
    for n in range(keep[0], keep[-1] + 1):
        term = c[n] * power
        total += term * weights[n]
        size += abs(term * weights[n])
        size_c += abs(term)
        power *= w0
    pref = mp.exp((p - abs(zm) ** 2) / 2) / N
    return total * pref, size * pref, size_c * pref


def _mp_filter(mp, N, p, z):
    """Series length L, lam_n = N e^{-p} p^n / n! (50 digits, by recurrence)
    and its double log, and the projection filter lam_n / lhat_{n mod N} as
    (double log, 50 digits), for n < L.  L reaches past the modal index of
    the largest |z| by the old default 20 sqrt + 10 N margin, far beyond the
    length the library sums, and lhat_j sums every stored member."""
    scale = max(p, float(np.max(np.abs(z))) * math.sqrt(p))
    L = max(
        math.ceil(p + 20 * math.sqrt(p) + 10 * N),
        math.ceil(scale + 20 * math.sqrt(scale) + 10 * N),
    ) + 1
    lam = [mp.mpf(N) * mp.exp(-p)]
    for n in range(1, L):
        lam.append(lam[-1] * p / n)
    lhat = [mp.fsum(lam[j::N]) for j in range(N)]
    c_partial = [lam[n] / lhat[n % N] for n in range(L)]
    log_lhat = np.array([float(mp.log(v)) for v in lhat])
    n = np.arange(L)
    log_lam = math.log(N) - p + n * math.log(p) - np.array([math.lgamma(m + 1) for m in n])
    return L, lam, log_lam, log_lam - log_lhat[n % N], c_partial


def _model_tol(z, p, K, size, fft_mass=0, size_c=0, N=1):
    """c K u sum|term| of the rounding model in
    test_far_kernel_routes_match_high_precision_reference, plus the FFT's
    2 log2(N) u sum_k |Psi_k| per sample-DFT weight.  At z = 0 only the
    n = 0 term is nonzero, and n log|w0| adds nothing to it."""
    log_w0 = abs(math.log(abs(z) / math.sqrt(p))) if z else 0.0
    cK = (math.log(K) + abs(math.log(p)) + log_w0 + math.pi + 2) * K
    return U * (cK * size + 2 * math.log2(N) * fft_mass * size_c)


def test_far_kernel_routes_match_high_precision_reference():
    """At N = p = 2048, M = N - 1 and |z| = 1.4..1.6 sqrt(p) the terms
    |w0|^n of the kernel series pass 1e308; summed without a shift they gave
    NaN.  The four kernel routes must match a 50-digit evaluation of the
    same finite sums from the same double samples.

    Rounding model: term n is exp(x_n + i phi_n), with x_n = log c_n +
    n log|w0| + log|W_n| less the point's largest, and phi_n = n theta +
    arg W_n.  For n < K the logarithms in x_n come to at most
    K (log K + |log p| + |log|w0|| + 1) in size (log|W_n| is far inside
    that for these weights) and |phi_n| <= K pi, so the relative error of a
    term is below u K (log K + |log p| + |log|w0|| + pi + 1), and the K-term
    sum adds K u more: c K u sum_n |term_n| with c = log K + |log p| +
    |log|w0|| + pi + 2.  Terms below u/K of the largest, which the library
    leaves out, sum to less than u max|term|, inside that.  The sample routes
    take W_n = S_{n mod N} from a radix-2 FFT, off by at most
    2 log2(N) u sum_k |Psi_k| each, which adds that times sum_n |c_n w0^n|.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    N, p, M = REF_N, REF_P, REF_M
    rng = np.random.default_rng(19)
    x = sample(_state(rng, 1900, M), PhaseGrid(N, p)).values
    exact = ExactReconstructor(N=N, p=p, M=M)
    partial = PartialReconstructor(N=N, p=p)
    k = 5
    z = np.array(REF_POINTS)

    roots = [mp.expjpi(mp.mpf(2 * j) / N) for j in range(N)]
    S = _mp_dft(mp, [mp.mpc(v.real, v.imag) for v in x], roots)
    unit = [roots[(k * j) % N] for j in range(N)]

    L, _, _, log_partial, c_partial = _mp_filter(mp, N, p, z)
    mass = mp.fsum(abs(mp.mpc(v.real, v.imag)) for v in x)
    exact_c = (np.zeros(M + 1), [mp.mpf(1)] * (M + 1))
    partial_c = (log_partial, c_partial)

    cases = {
        "exact_reconstruct": (exact.reconstruct(x, z), exact_c, S[: M + 1], mass),
        "sinc_kernel": (exact.sinc_kernel(k, z), exact_c, unit[: M + 1], 0),
        "partial_reconstruct": (
            partial.reconstruct(x, z),
            partial_c,
            [S[n % N] for n in range(L)],
            mass,
        ),
        "lagrange_kernel": (
            partial.lagrange_kernel(k, z),
            partial_c,
            [unit[n % N] for n in range(L)],
            0,
        ),
    }
    for name, (got, (log_c, c), weights, mass_w) in cases.items():
        assert np.all(np.isfinite(got)), name
        K = len(log_c)
        for i, zz in enumerate(z):
            ref, size, size_c = _mp_series(mp, zz, log_c, c, weights, N, p)
            tol = _model_tol(zz, p, K, size, mass_w, size_c, N)
            err = abs(mp.mpc(got[i].real, got[i].imag) - ref)
            assert err <= tol, (
                f"{name} at z = {zz:.6g}: error {float(err):.3e} > {float(tol):.3e}"
            )


# -- 50-digit references on the benchmark grid and past both ends of N/p ----

# (N, p, state modes lo..M, routes); the Poisson window of p = 128 is
# 38..219, as in the offgrid benchmark workload
OFFGRID_GRIDS = [
    (256, 128.0, 38, 219, "all"),
    (64, 4.0, 0, 20, "partial"),  # N >> p
    (8, 200.0, 87, 313, "partial"),  # N << p
]


def _reference_cases(mp, N, p, lo, M, which, z):
    """The off-grid routes of test_offgrid_routes_match_high_precision_reference
    on one grid, by name: (route of z, (double log c_n, 50-digit c_n),
    50-digit weights W_n, sum_k |Psi_k| for the sample routes or 0).  The
    partial filter reaches past the largest |z| of `z`."""
    rng = np.random.default_rng(23)
    psi = _state(rng, lo, M)
    x = sample(psi, PhaseGrid(N, p)).values
    partial = PartialReconstructor(N=N, p=p).fit(x)
    k = 3

    roots = [mp.expjpi(mp.mpf(2 * j) / N) for j in range(N)]
    S = _mp_dft(mp, [mp.mpc(v.real, v.imag) for v in x], roots)
    unit = [roots[(k * j) % N] for j in range(N)]
    mass = mp.fsum(abs(mp.mpc(v.real, v.imag)) for v in x)
    L, lam, log_lam, log_partial, c_partial = _mp_filter(mp, N, p, z)
    partial_c = (log_partial, c_partial)

    def state_case(route, a):
        # sum_n a_n conj(z)^n / sqrt(n!) e^{-|z|^2/2}, as the kernel-route
        # series with c_n = sqrt(N lam_n) and w0 = conj(z) / sqrt(p)
        K = len(a)
        with np.errstate(divide="ignore"):
            log_a = np.log(np.abs(a))  # guides the summed run of modes
        c = [mp.sqrt(N * lam[n]) for n in range(K)]
        weights = [mp.mpc(v.real, v.imag) for v in a]
        return route, (0.5 * (math.log(N) + log_lam[:K]) + log_a, c), weights, 0

    cases = {
        "partial_predict": state_case(partial.predict, partial.coef_),
        "partial_reconstruct": (lambda z: partial.reconstruct(x, z), partial_c,
                                [S[n % N] for n in range(L)], mass),
        "lagrange_kernel": (lambda z: partial.lagrange_kernel(k, z), partial_c,
                            [unit[n % N] for n in range(L)], 0),
    }
    if which == "all":
        exact = ExactReconstructor(N=N, p=p, M=M).fit(x)
        exact_c = (np.zeros(M + 1), [mp.mpf(1)] * (M + 1))
        cases.update({
            "evaluate": state_case(lambda z: evaluate(psi, z), psi.coefficients),
            "exact_predict": state_case(exact.predict, exact.coef_),
            "exact_reconstruct": (lambda z: exact.reconstruct(x, z), exact_c, S[: M + 1], mass),
            "sinc_kernel": (lambda z: exact.sinc_kernel(k, z), exact_c, unit[: M + 1], 0),
        })
        assert len(cases) == 7
    return cases


@pytest.mark.parametrize("N, p, lo, M, which", OFFGRID_GRIDS)
def test_offgrid_routes_match_high_precision_reference(N, p, lo, M, which):
    """Every off-grid route at radii 0..2 sqrt(p), z = 0 included, against
    50-digit sums of the same series from the same double inputs: the state
    (evaluate), the fitted coefficients (predict) or the samples (the kernel
    routes), held to the rounding model of
    test_far_kernel_routes_match_high_precision_reference.  The reference
    sums the projection's series out to the old p + 20 sqrt(p) + 10 N
    length, so a filter length that stops too early fails here; the N >> p
    and N << p grids put the period far from and far below the peak width.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    radius = math.sqrt(p)
    z = np.array([0.0] + [r * radius * np.exp(1j * (1 + 2.3 * r)) for r in (0.3, 0.7, 1.0, 1.4, 2.0)])
    cases = _reference_cases(mp, N, p, lo, M, which, z)
    for name, (route, (log_c, c), weights, mass_w) in cases.items():
        got = route(z)
        assert np.all(np.isfinite(got)), name
        for i, zz in enumerate(z):
            ref, size, size_c = _mp_series(mp, zz, log_c, c, weights, N, p)
            tol = _model_tol(zz, p, len(log_c), size, mass_w, size_c, N)
            err = abs(mp.mpc(got[i].real, got[i].imag) - ref)
            assert err <= tol, (
                f"{name} at z = {zz:.6g}: error {float(err):.3e} > {float(tol):.3e}"
            )


def _czt_tol(K, n_t, size):
    """The chirp-z transform's rounding: three FFTs of the power of two
    F >= K + n_t - 1 (no shorter than the library's, whose window is at
    most K long), each held, as the sample DFT is in _model_tol, to
    2 log2(F) u times the mass of its input; up to the unit-modulus chirps
    that mass is sum_n |term_n|, so 6 log2(F) u sum_n |term_n|."""
    F = 1 << (K + n_t - 2).bit_length()
    return 6 * math.log2(F) * U * size


# (radii / sqrt(p), t0, t1, n_t, the checked (radius, angle) indices): the
# --eval-mesh arc 0..6.2, a full ring, an arc past 2 pi from t0 < 0, and
# steps of 40.1 rad, where a chirp phase m^2 step/2 rounded as one product
# errs by u m^2 20, past the model; the first and last angle of each mesh
# are checked (at angle 0 the rounding of the chirp and its inverse cancel)
POLAR_MESHES = [
    ((0.0, 0.3, 1.0, 2.0), 0.0, 6.2, 16, [(0, 0), (1, 15), (2, 0), (2, 7), (3, 15)]),
    ((0.7, 1.4), 0.0, 2 * math.pi * 15 / 16, 16, [(0, 0), (1, 15)]),
    ((0.5, 1.2), -2.0, 9.0, 5, [(0, 4), (1, 0)]),
    ((1.0,), 0.3, 120.6, 4, [(0, 3)]),
]


def test_polar_routes_match_high_precision_reference():
    """Every off-grid route on PolarMesh rings and arcs of the benchmark grid
    (N = 256, p = 128, the state on 38..219) at radii 0..2 sqrt(p), against
    the 50-digit sums of test_offgrid_routes_match_high_precision_reference
    at the mesh's points, held to the same rounding model plus _czt_tol."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    N, p, lo, M, which = OFFGRID_GRIDS[0]
    meshes = [(PolarMesh(np.array(radii) * math.sqrt(p), t0, t1, n_t), checked)
              for radii, t0, t1, n_t, checked in POLAR_MESHES]
    z = np.concatenate([mesh.points().ravel() for mesh, _ in meshes])
    cases = _reference_cases(mp, N, p, lo, M, which, z)
    for name, (route, (log_c, c), weights, mass_w) in cases.items():
        for mesh, checked in meshes:
            got, points = route(mesh), mesh.points()
            assert got.shape == points.shape and np.all(np.isfinite(got)), name
            for i, k in checked:
                zz = points[i, k]
                ref, size, size_c = _mp_series(mp, zz, log_c, c, weights, N, p)
                tol = (_model_tol(zz, p, len(log_c), size, mass_w, size_c, N)
                       + _czt_tol(len(log_c), mesh.n_t, size))
                err = abs(mp.mpc(got[i, k].real, got[i, k].imag) - ref)
                assert err <= tol, (
                    f"{name} at z = {zz:.6g}: error {float(err):.3e} > {float(tol):.3e}"
                )


def test_polar_evaluate_matches_high_precision_reference_at_n_16384():
    """evaluate of a window state (p +- 8 sqrt(p)) of N = 16384, p = 8192 on
    rings at 0.9, 1.0 and 1.1 sqrt(p), 64 angles over 0..6.2, against the
    50-digit sum of test_offgrid_routes_match_high_precision_reference."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    N, p = 16384, 8192.0
    root = math.sqrt(p)
    psi = _state(np.random.default_rng(5), round(p - 8 * root), round(p + 8 * root))
    mesh = PolarMesh(np.array([0.9, 1.0, 1.1]) * root, 0.0, 6.2, 64)
    got, points = evaluate(psi, mesh), mesh.points()
    a = psi.coefficients
    K = len(a)
    lam = [mp.mpf(N) * mp.exp(-p)]  # N e^{-p} p^n / n!, as in _mp_filter
    for n in range(1, K):
        lam.append(lam[-1] * p / n)
    n = np.arange(K)
    log_lam = math.log(N) - p + n * math.log(p) - np.array([math.lgamma(m + 1) for m in n])
    with np.errstate(divide="ignore"):
        log_c = 0.5 * (math.log(N) + log_lam) + np.log(np.abs(a))
    c = [mp.sqrt(N * v) for v in lam]
    weights = [mp.mpc(v.real, v.imag) for v in a]
    for i, k in [(0, 0), (1, 31), (2, 63)]:
        zz = points[i, k]
        ref, size, _ = _mp_series(mp, zz, log_c, c, weights, N, p)
        tol = _model_tol(zz, p, K, size) + _czt_tol(K, mesh.n_t, size)
        err = abs(mp.mpc(got[i, k].real, got[i, k].imag) - ref)
        assert err <= tol, f"at z = {zz:.6g}: error {float(err):.3e} > {float(tol):.3e}"


def test_a_mesh_matches_its_points_on_every_route():
    # the polar path against the point path on the mesh's own points, each
    # row to rounding of its largest value: radius 0 (the n = 0 term alone),
    # a single angle, rings inside and past the circle, an arc past 2 pi
    meshes = [PolarMesh([0.0], -1.0, 2.0, 4), PolarMesh([0.0, 0.5, 1.5, 3.0], 0.3, 0.3, 1),
              PolarMesh([0.2, 2.0, 4.0], 0.0, 6.2, 16), PolarMesh([1.0], -3.0, 9.0, 7)]
    for name, route in _all_routes(8, 4.0, 5, 29).items():
        for mesh in meshes:
            got, want = route(mesh), route(mesh.points())
            assert got.shape == want.shape == (len(mesh.radii), mesh.n_t), name
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-14 * scale), (name, mesh)


def test_degenerate_rows_are_exact_zeros():
    # a point with no nonzero term has an empty window and gives an exact
    # 0, also when it shares a batch with far points
    z = np.array([0.0, 30.0, 300.0j, 1e5 * np.exp(0.4j)])
    out = evaluate(FockVector([0.0, 0.6, 0.8j]), z)  # z = 0 with a_0 = 0
    assert out[0] == 0 and np.all(np.isfinite(out))
    assert evaluate(FockVector([0.0, 0.6]), 0.0) == 0
    N, p, M = 8, 6.0, 7
    zeros = np.zeros(N)
    exact = ExactReconstructor(N=N, p=p, M=M)
    partial = PartialReconstructor(N=N, p=p)
    mesh = PolarMesh([0.0, 30.0, 1e5], 0.0, 6.2, 5)
    assert np.array_equal(evaluate(FockVector([0.0, 0.6, 0.8j]), mesh)[0], np.zeros(5))
    all_zero = {
        "evaluate": lambda z: evaluate(FockVector(np.zeros(M + 1)), z),
        "exact_reconstruct": lambda z: exact.reconstruct(zeros, z),
        "partial_reconstruct": lambda z: partial.reconstruct(zeros, z),
        "partial_predict": partial.fit(zeros).predict,
    }
    for name, route in all_zero.items():
        assert np.array_equal(route(z), np.zeros(len(z))), name
        assert np.array_equal(route(mesh), np.zeros((3, 5))), name
    # w0 = 0 beside far points: the n = 0 term alone, e^{p/2} / N at k = 3
    for kernel in (exact.sinc_kernel(3, z), partial.lagrange_kernel(3, z)):
        assert np.all(np.isfinite(kernel))
    assert exact.sinc_kernel(3, z)[0] == pytest.approx(math.exp(p / 2) / N, rel=1e-14)


def _all_routes(N, p, M, seed):
    """_routes and both predicts: all seven off-grid routes."""
    psi = _state(np.random.default_rng(seed), 0, M)
    x = sample(psi, PhaseGrid(N, p)).values
    routes = {
        **_routes(N, p, M, seed),
        "exact_predict": ExactReconstructor(N=N, p=p, M=M).fit(x).predict,
        "partial_predict": PartialReconstructor(N=N, p=p).fit(x).predict,
    }
    assert len(routes) == 7
    return routes


@pytest.mark.parametrize("z", [np.nan, np.inf, complex(np.nan, 1.0)])
def test_non_finite_points_are_rejected(z):
    for route in _all_routes(8, 4.0, 5, 29).values():
        for points in (z, np.array([0.5, z])):
            with pytest.raises(ValueError, match="finite"):
                route(points)


@pytest.mark.filterwarnings("error")
def test_a_value_past_double_range_is_a_named_error():
    # N = 16384, p = 8192, M = N - 1: at |z| = 0.9 sqrt(p) the exact kernel
    # route's rounding noise is scaled by about e^{(p - |z|^2)/2} and leaves
    # double range; the point's |z| and the value's log10 are named instead
    # of an inf returned beside an overflow warning
    N, p = 16384, 8192.0
    root = math.sqrt(p)
    psi = _state(np.random.default_rng(5), round(p - 8 * root), round(p + 8 * root))
    x = sample(psi, PhaseGrid(N, p)).values
    z = 0.9 * root * np.exp(1j * np.array([0.1, 1.0, 2.0, 3.0]))
    for points in (z, PolarMesh([0.9 * root], 0.1, 3.0, 4)):
        with pytest.raises(ValueError,
                           match=r"\|z\| = 81\.4587 is 10\^3\d\d\.\d, past double range"):
            ExactReconstructor(N=N, p=p, M=N - 1).reconstruct(x, points)


@pytest.mark.filterwarnings("error")
def test_every_route_past_the_square_overflow_of_z():
    # |z|^2 overflows past |z| ~ 1.3e154, where e^{-|z|^2/2} is an exact 0;
    # the projection's series, whose length grows as sqrt(p) |z|, names |z|
    z = np.array([1e200, -1e200j, 0.5 + 0.5j])
    mesh = PolarMesh([1e200, abs(0.5 + 0.5j)], 0.0, 6.2, 5)
    for name, route in _routes(8, 6.0, 7, 17).items():
        if name in ("partial_reconstruct", "lagrange_kernel"):
            for points in (z, mesh):
                with pytest.raises(ValueError, match=r"\|z\| = 1e\+200 puts sqrt\(p\) \|z\|"):
                    route(points)
        else:
            out = route(z)
            assert np.all(out[:2] == 0) and out[2] != 0, name
            assert route(1e200) == 0, name
            out = route(mesh)
            assert np.all(out[0] == 0) and np.all(out[1] != 0), name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", [2, 7, 64])
def test_past_double_range_at_the_origin_is_the_named_error(N):
    # at p = 2048 the kernel series of constant samples is about 10^444.7 at
    # |z| <= 0.5; the rescale's inf * 0 (a zero imaginary part) raised
    # "invalid value encountered in multiply" before the named error
    rec = ExactReconstructor(N=N, p=2048.0)
    for z, named in ((0.0, "0"), (0.5, r"0\.5"), (PolarMesh([0.0, 0.5], 0.0, 1.0, 3), "0")):
        with pytest.raises(ValueError, match=rf"\|z\| = {named} is 10\^444\.7, past double range"):
            rec.reconstruct(np.ones(N), z)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", [1, 2, 7, 64])
def test_tiny_p_overflow_of_w0_gives_the_exact_zero(N):
    # at p = 1e-300, w0 = conj(z) / sqrt(p) overflows at |z| = 1e200 (it gave
    # nan+nanj); there log|w0| is log|z| - log(p)/2, and e^{-|z|^2/2} = 0
    # makes the value an exact 0.  Constant samples interpolate to 1 near 0.
    rec = ExactReconstructor(N=N, p=1e-300)
    values = np.ones(N)
    assert rec.reconstruct(values, 1e200) == 0
    out = rec.reconstruct(values, np.array([1e200, -1e200j, 1e-200]))
    assert np.array_equal(out[:2], [0, 0]) and out[2] == pytest.approx(1.0, rel=1e-15)
    out = rec.reconstruct(values, PolarMesh([1e200, 1e-200], 0.0, 1.0, 3))
    assert np.array_equal(out[0], np.zeros(3)) and np.allclose(out[1], 1.0, rtol=1e-15)
    assert rec.sinc_kernel(0, 1e200) == 0
