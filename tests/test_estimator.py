"""Shared estimator-contract checks for both reconstructors."""

import warnings

import numpy as np
import pytest

from phaseframe import (
    ExactReconstructor,
    NotFittedError,
    PartialReconstructor,
    partial,
    spectral,
)

CASES = [
    (ExactReconstructor, dict(N=8, p=5.0, M=5)),
    (PartialReconstructor, dict(N=5, p=7.0)),
]


def _samples(rng, N):
    return rng.standard_normal(N) + 1j * rng.standard_normal(N)


@pytest.mark.parametrize("cls,kwargs", CASES)
def test_get_params_round_trip(cls, kwargs):
    est = cls(**kwargs)
    params = est.get_params()
    for key, value in kwargs.items():
        assert params[key] == value
    clone = cls(**params)
    assert clone.get_params() == params


@pytest.mark.parametrize("cls,kwargs", CASES)
def test_set_params_returns_self_and_rejects_unknown(cls, kwargs):
    est = cls(**kwargs)
    assert est.set_params(p=kwargs["p"]) is est
    with pytest.raises(ValueError, match="invalid parameter"):
        est.set_params(bogus=3)


@pytest.mark.parametrize(
    "cls,keys",
    [(ExactReconstructor, ("N", "p", "M")), (PartialReconstructor, ("N", "p", "n_max"))],
)
def test_params_carry_no_series_tolerance(cls, keys):
    # the series stop is a module constant, not an estimator parameter
    est = cls()
    assert tuple(est.get_params()) == keys
    with pytest.raises(ValueError, match="invalid parameter"):
        est.set_params(series_tol=1e-8)


@pytest.mark.parametrize("cls,kwargs", CASES)
def test_set_params_invalidates_fit(cls, kwargs):
    rng = np.random.default_rng(5)
    est = cls(**kwargs).fit(_samples(rng, kwargs["N"]))
    est.state()
    est.set_params(p=kwargs["p"] + 1.0)
    with pytest.raises(NotFittedError):
        est.state()
    assert est.coef_ is None
    assert est.samples_ is None


@pytest.mark.parametrize("cls,kwargs", CASES)
def test_unfitted_access_raises(cls, kwargs):
    est = cls(**kwargs)
    with pytest.raises(NotFittedError):
        est.predict(0.3 + 0.1j)
    with pytest.raises(NotFittedError):
        est.state()


@pytest.mark.parametrize("cls,kwargs", CASES)
def test_fit_transform_matches_transform(cls, kwargs):
    rng = np.random.default_rng(11)
    x = _samples(rng, kwargs["N"])
    est = cls(**kwargs)
    out = est.fit_transform(x)
    assert out.ndim == 2
    assert out.shape[0] == 1
    row = cls(**kwargs).transform(x)
    assert np.allclose(out, row, rtol=1e-12, atol=0.0)
    assert np.array_equal(out[0], est.coef_)


@pytest.mark.parametrize("cls,kwargs", CASES)
def test_transform_stacks_rows_linearly(cls, kwargs):
    rng = np.random.default_rng(17)
    X = np.stack([_samples(rng, kwargs["N"]), _samples(rng, kwargs["N"])])
    est = cls(**kwargs)
    out = est.transform(X)
    assert out.shape[0] == 2
    # sample-to-coefficient map is linear, so rows must combine accordingly
    combo = est.transform(X[0] + 2.0 * X[1])
    assert np.allclose(combo[0], out[0] + 2.0 * out[1], rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError, match="2-d"):
        est.transform(X[None, :, :])


@pytest.mark.parametrize("cls", [ExactReconstructor, PartialReconstructor])
def test_missing_hyperparameters_fail_fast(cls):
    with pytest.raises(ValueError):
        cls().fit(np.zeros(4, dtype=complex))


# -- batched transform ----------------------------------------------------------

ROW_METHOD = {
    ExactReconstructor: "dft_coefficients",
    PartialReconstructor: "alias_coefficients",
}


def _row_loop(est, X):
    method = getattr(est, ROW_METHOD[type(est)])
    return np.vstack([method(row).coefficients for row in X])


@pytest.mark.parametrize(
    "cls,kwargs",
    CASES
    + [
        (ExactReconstructor, dict(N=97, p=60.0, M=80)),
        (PartialReconstructor, dict(N=97, p=300.0)),
    ],
)
def test_transform_stack_matches_row_loop(cls, kwargs):
    rng = np.random.default_rng(23)
    X = np.stack([_samples(rng, kwargs["N"]) for _ in range(5)])
    est = cls(**kwargs)
    out = est.transform(X)
    ref = _row_loop(est, X)
    assert out.shape == ref.shape
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(out - ref) <= 1e-15 * scale)


def _bad_stacks(N, rng):
    X = np.stack([_samples(rng, N) for _ in range(3)])
    nonfinite = X.copy()
    nonfinite[1, 2] = np.nan
    return [
        (nonfinite, "samples must contain only finite entries"),
        (X[:, :-1], f"expected {N} samples, got {N - 1}"),
    ]


@pytest.mark.parametrize("cls,kwargs", CASES)
def test_transform_stack_raises_where_row_loop_raises(cls, kwargs):
    rng = np.random.default_rng(29)
    est = cls(**kwargs)
    for X, message in _bad_stacks(kwargs["N"], rng):
        with pytest.raises(ValueError, match=message):
            _row_loop(est, X)
        with pytest.raises(ValueError, match=message):
            est.transform(X)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "est",
    [ExactReconstructor(N=400, p=0.5, M=399), PartialReconstructor(N=400, p=0.5)],
)
def test_transform_stack_raises_on_nonfinite_result(est):
    # the top mode weights at p = 0.5 lie far below double range, so the
    # recovered coefficients overflow
    X = np.stack([_samples(np.random.default_rng(31), 400) for _ in range(2)])
    message = "coefficients must contain only finite entries"
    with pytest.raises(ValueError, match=message):
        _row_loop(est, X)
    with pytest.raises(ValueError, match=message):
        est.transform(X)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "est",
    [ExactReconstructor(N=400, p=0.5, M=399), PartialReconstructor(N=400, p=0.5)],
)
def test_nonfinite_result_names_the_first_overflowing_mode(est):
    # (N lam_n)^{-1/2} |S_n| first passes the largest double at n = 269; in
    # band the alias scale sqrt(lam_n)/(lhat_n sqrt(N)) is that gain over
    # 1 + nu_n, with nu_n < 1e-300 here
    x = _samples(np.random.default_rng(31), 400)
    log_S = np.log(np.abs(400 * np.fft.ifft(x)))
    log_gain = -0.5 * (np.log(400) + spectral.log_mode_weight(np.arange(400), 0.5, 400))
    n = int(np.argmax(log_gain + log_S > np.log(np.finfo(float).max)))
    assert n == 269
    message = (
        "coefficients must contain only finite entries; first not at "
        rf"mode n = {n}, scale 10\^{log_gain[n] / np.log(10):.1f}"
    )
    with pytest.raises(ValueError, match=message):
        est.fit(x)
    with pytest.raises(ValueError, match=message):
        est.transform(np.stack([x, x]))


def test_transform_stack_keeps_mode_weight_warning():
    est = ExactReconstructor(N=171, p=0.5, M=170)
    with pytest.warns(RuntimeWarning, match="sample rounding"):
        est.transform(np.zeros((3, 171), dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ExactReconstructor(N=171, p=0.5, M=30).transform(np.ones((3, 171)))


# -- grid plan ------------------------------------------------------------------


@pytest.fixture
def series_calls(monkeypatch):
    """Count calls to the two spectral series; the plan reads them through
    the spectral module."""
    calls = {"log_folded_weight": 0, "log_aliasing_excess": 0}
    for name in calls:
        original = getattr(spectral, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral, name, counted)
    return calls


def _reset(calls):
    seen = dict(calls)
    for name in calls:
        calls[name] = 0
    return seen


def test_exact_routes_run_no_series(series_calls):
    rng = np.random.default_rng(37)
    x = _samples(rng, 16)
    z = np.linspace(0.0, 3.0, 5) * np.exp(0.4j)
    est = ExactReconstructor(N=16, p=9.0, M=12)
    est.fit(x)
    est.transform(np.stack([x, x]))
    est.dft_coefficients(x)
    est.sinc_kernel(3, z)
    PartialReconstructor(N=16, p=9.0).reconstruct_filtered(x, 12)
    assert series_calls == {"log_folded_weight": 0, "log_aliasing_excess": 0}


def test_partial_routes_fold_once(series_calls):
    rng = np.random.default_rng(41)
    x = _samples(rng, 16)
    z = np.linspace(0.0, 6.0, 50) * np.exp(1.1j)
    est = PartialReconstructor(N=16, p=9.0)
    once = {"log_folded_weight": 1, "log_aliasing_excess": 0}
    est.transform(np.stack([x, x]))
    assert _reset(series_calls) == once
    est.reconstruct(x, z)
    assert _reset(series_calls) == once
    est.lagrange_kernel(5, z)
    assert _reset(series_calls) == once
    est.filter_factors()
    assert _reset(series_calls) == {"log_folded_weight": 0, "log_aliasing_excess": 1}


def test_partial_kernel_routes_work_per_call(monkeypatch):
    # the weight series is built once per call, out to the length the
    # largest |z| needs, not once per point: 500 points reaching far past
    # n_max cost as many series calls as 5 near the origin
    calls = {"log_folded_weight": 0, "log_mode_weight": 0}
    for module, name in (
        (spectral, "log_folded_weight"),
        (spectral, "log_mode_weight"),
        (partial, "log_mode_weight"),
    ):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    rng = np.random.default_rng(53)
    x = _samples(rng, 16)
    est = PartialReconstructor(N=16, p=9.0)
    few = np.linspace(0.1, 2.0, 5) * np.exp(0.7j)
    many = np.linspace(0.0, 60.0, 500) * np.exp(1j * np.linspace(0.0, 9.0, 500))
    n_max = est._plan().n_max
    assert 60.0 * 3.0 + 10 * 16 > n_max  # |z| sqrt(p) + 10 N reaches past it
    for route in (lambda z: est.reconstruct(x, z), lambda z: est.lagrange_kernel(5, z)):
        _reset(calls)
        route(few)
        per_call = _reset(calls)
        route(many)
        assert _reset(calls) == per_call
        assert per_call["log_folded_weight"] == 1
