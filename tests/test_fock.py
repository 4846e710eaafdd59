import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaseframe import (
    CoherentPoint,
    FockVector,
    PhaseGrid,
    SampleSet,
    TailProfile,
    coherent_amplitude,
    cs_overlap,
    evaluate,
    sample,
)
from phaseframe import fock
from phaseframe.fock import scale_by_exp


def unit_state(rng, length):
    a = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return FockVector(a / np.linalg.norm(a))


# -- amplitudes ---------------------------------------------------------------


def test_vacuum_amplitude_at_origin():
    assert coherent_amplitude(0, 0.0) == 1.0
    assert coherent_amplitude(3, 0.0) == 0.0


def test_ground_amplitude_known_value():
    # <0|z> = e^{-|z|^2/2}
    assert coherent_amplitude(0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_amplitude_matches_direct_formula_small_n():
    z = 0.7 - 0.3j
    for n in range(8):
        direct = math.exp(-abs(z) ** 2 / 2) * z**n / math.sqrt(math.factorial(n))
        assert coherent_amplitude(n, z) == pytest.approx(direct, rel=1e-13)


def test_amplitude_normalization_sums_to_one():
    for z in (0.3, 1.0 + 2.0j, math.sqrt(200.0) * np.exp(0.4j)):
        p = abs(z) ** 2
        cutoff = int(p + 20 * math.sqrt(p) + 60)
        n = np.arange(cutoff)
        u = coherent_amplitude(n, z)
        assert np.sum(np.abs(u) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_amplitude_never_exceeds_one():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(0, 5000))
        z = rng.uniform(0, 30) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        assert abs(coherent_amplitude(n, z)) <= 1.0 + 1e-15


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=200),
    r=st.floats(min_value=1e-3, max_value=20.0),
    phi=st.floats(min_value=-3.14159, max_value=3.14159),
)
def test_amplitude_phase_covariance(n, r, phi):
    # U_n(r e^{i phi}) = e^{i n phi} U_n(r)
    lhs = coherent_amplitude(n, r * complex(math.cos(phi), math.sin(phi)))
    rhs = coherent_amplitude(n, r) * complex(math.cos(n * phi), math.sin(n * phi))
    assert lhs == pytest.approx(rhs, abs=2e-13)


def test_amplitude_rejects_negative_mode():
    with pytest.raises(ValueError):
        coherent_amplitude(-1, 0.5)


# -- coherent-state overlap ---------------------------------------------------


def test_overlap_self_is_one():
    for z in (0.0, 1.5, 2.0 - 1.0j):
        assert cs_overlap(z, z) == pytest.approx(1.0, rel=1e-15)


def test_overlap_vacuum_column():
    z = 1.2 + 0.4j
    assert cs_overlap(0.0, z) == pytest.approx(math.exp(-abs(z) ** 2 / 2), rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    x1=st.floats(-6, 6), y1=st.floats(-6, 6),
    x2=st.floats(-6, 6), y2=st.floats(-6, 6),
)
@example(x1=6.0, y1=6.0, x2=6.0, y2=6.0)
def test_overlap_conjugate_symmetry_and_bound(x1, y1, x2, y2):
    z1, z2 = complex(x1, y1), complex(x2, y2)
    a = cs_overlap(z1, z2)
    b = cs_overlap(z2, z1)
    assert a == pytest.approx(b.conjugate(), abs=1e-14)
    assert abs(a) <= 1.0 + 1e-14


def test_overlap_of_equal_far_points_is_one():
    # Im(conj(z1) z2) is inf - inf past |Re z|, |Im z| ~ 1e154; it is then
    # formed as Im(conj(z1) (z2 - z1))
    z = 1e200 * (1 + 1j)
    assert cs_overlap(z, z) == 1
    table = cs_overlap(np.array([z, -z, 1.0]), z)
    assert table[0] == 1 and np.array_equal(table[1:], [0, 0])


def test_overlap_expansion_over_modes():
    # <z1|z2> = sum_n conj(U_n(z1)) U_n(z2)
    z1, z2 = 1.1 - 0.2j, 0.4 + 0.9j
    n = np.arange(60)
    s = np.sum(np.conj(coherent_amplitude(n, z1)) * coherent_amplitude(n, z2))
    assert s == pytest.approx(cs_overlap(z1, z2), abs=1e-14)


# 0, signed zeros, a CoherentPoint and |z| = 1e3 (whose overlaps with the
# small points underflow to signed zeros)
OVERLAP_POINTS = [
    0, 0.0, -0.0, complex(-0.0, -0.0), 1e3, -1e3j, 1e3 * np.exp(0.3j),
    1.5 - 2.0j, 0.25j, CoherentPoint(2.0 + 1.0j),
]


def test_overlap_broadcast_matches_scalar_calls_bit_for_bit():
    zs = np.array([getattr(z, "z", z) for z in OVERLAP_POINTS], dtype=complex)
    table = cs_overlap(zs[:, None], zs[None, :])
    assert table.shape == (len(zs), len(zs))
    for i, z1 in enumerate(OVERLAP_POINTS):
        for j, z2 in enumerate(OVERLAP_POINTS):
            v = cs_overlap(z1, z2)
            assert type(v) is complex
            bits = np.array([v]).view(np.uint64)
            assert np.array_equal(bits, table[i, j : j + 1].view(np.uint64)), (z1, z2)
    assert np.all(np.abs(table) <= 1.0)
    assert np.array_equal(table.T, table.conj())  # swapping the arguments conjugates exactly
    # a scalar CoherentPoint against a 2-d array
    pt = OVERLAP_POINTS[-1]
    block = cs_overlap(pt, zs.reshape(2, 5))
    assert np.array_equal(block.view(np.uint64), table[-1].reshape(2, 5).view(np.uint64))


def test_coherent_point_properties():
    pt = CoherentPoint(3.0 * np.exp(2j))
    assert pt.p == pytest.approx(9.0, rel=1e-14)
    assert pt.theta == pytest.approx(2.0, rel=1e-14)
    assert CoherentPoint(-2.0).theta == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        CoherentPoint(complex("inf"))


# -- state container ----------------------------------------------------------


def test_fock_vector_basics():
    psi = FockVector([1.0, 2.0j])
    assert len(psi) == 2
    assert psi.order == 1
    assert psi.norm_sq() == pytest.approx(5.0)
    assert psi.normalized().norm() == pytest.approx(1.0, rel=1e-15)


def test_fock_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        FockVector([])
    with pytest.raises(ValueError):
        FockVector([np.nan])
    with pytest.raises(ValueError):
        FockVector([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        FockVector([0.0]).normalized()


def test_tail_profile_validation():
    TailProfile(1.0, 0.75)
    with pytest.raises(ValueError):
        TailProfile(-1.0, 2.0)
    with pytest.raises(ValueError):
        TailProfile(1.0, 0.5)


def test_tail_mass_integral_bound():
    tail = TailProfile(2.0, 1.5)
    # sum_{n>M} 4 n^{-3} <= 4 M^{-2}/2
    assert tail.mass_beyond(10) == pytest.approx(4.0 * 10.0**-2 / 2.0)
    exact = 4.0 * sum(n**-3.0 for n in range(11, 4000))
    assert tail.mass_beyond(10) >= exact


def test_basis_and_padding():
    e2 = FockVector.basis_state(2)
    assert len(e2) == 3 and e2.coefficients[2] == 1.0
    padded = e2.padded(6)
    assert len(padded) == 6
    assert np.all(padded.coefficients[3:] == 0)


def test_coherent_coefficient_helper():
    zeta = 0.8 + 0.5j
    psi = FockVector.from_coherent(zeta, 50)
    n = np.arange(50)
    # the coefficients are the amplitudes U_n(zeta), from the same formula
    for z in (zeta, 0.0, CoherentPoint(2.0 - 1.0j)):
        coeff = FockVector.from_coherent(z, 50).coefficients
        assert np.array_equal(coeff, coherent_amplitude(n, z))
    # nearly normalized once the tail is negligible
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


# -- grids and samples --------------------------------------------------------


def test_grid_points_on_circle():
    grid = PhaseGrid(5, 3.0)
    pts = grid.points()
    assert len(pts) == 5
    assert np.allclose(np.abs(pts) ** 2, 3.0, rtol=1e-14)
    # equal angular spacing
    ang = np.angle(pts[1] / pts[0])
    assert ang == pytest.approx(2 * math.pi / 5, rel=1e-12)
    assert grid.point(2) == pytest.approx(pts[2], rel=1e-14)


def test_grid_rejects_degenerate_parameters():
    with pytest.raises(ValueError, match="degenerate"):
        PhaseGrid(4, 0.0)
    with pytest.raises(ValueError):
        PhaseGrid(4, -1.0)
    with pytest.raises(ValueError):
        PhaseGrid(0, 1.0)
    with pytest.raises(ValueError):
        PhaseGrid(2.5, 1.0)
    with pytest.raises(ValueError):
        PhaseGrid(4, math.inf)


def test_evaluate_basis_state_is_conjugate_amplitude():
    z = 1.3 - 0.7j
    for n in (0, 1, 4):
        psi = FockVector.basis_state(n)
        assert evaluate(psi, z) == pytest.approx(
            complex(coherent_amplitude(n, z)).conjugate(), rel=1e-13
        )


def test_evaluate_linearity():
    rng = np.random.default_rng(7)
    a = unit_state(rng, 12)
    b = unit_state(rng, 12)
    z = 0.9 + 1.1j
    combo = FockVector(2.0 * a.coefficients - 1j * b.coefficients)
    expect = 2.0 * evaluate(a, z) - 1j * evaluate(b, z)
    assert evaluate(combo, z) == pytest.approx(expect, rel=1e-13)


def test_evaluate_coherent_state_matches_overlap():
    zeta = 1.4 + 0.3j
    psi = FockVector.from_coherent(zeta, 70)
    for z in (0.0, 0.5, 1.0 - 2.0j):
        # Psi(z) = <z|zeta>
        assert evaluate(psi, z) == pytest.approx(cs_overlap(z, zeta), abs=1e-13)
    # |zeta|^2 = 4500: the coefficients underflow to 0 past mode 8622, which
    # is past _BLOCK / 2, so each block of the series holds one point (at
    # |zeta|^2 = 4000 they stop at mode 7912, two points per block)
    zeta = math.sqrt(4500) * np.exp(0.7j)
    psi = FockVector.from_coherent(zeta, 9000)
    K = np.flatnonzero(psi.coefficients)[-1] + 1
    assert fock._BLOCK // K == 1
    z = zeta * np.array([0, 1, 1.01, np.exp(0.05j)])
    # the rounding model c K u sum|t| of tests/test_offgrid.py, with
    # sum|t| <= 1 for a coherent state
    c = math.log(K) + math.log(4500) + math.pi + 2
    u = np.finfo(float).eps / 2
    assert np.abs(evaluate(psi, z) - cs_overlap(z, zeta)).max() <= c * K * u


def test_evaluate_array_input():
    psi = FockVector([1.0, 0.5j])
    zs = np.array([0.1, 0.2 + 0.3j, 1.0])
    out = evaluate(psi, zs)
    assert out.shape == zs.shape
    assert out[1] == pytest.approx(evaluate(psi, zs[1]), rel=1e-15)


def test_sample_ground_state_equal_values():
    grid = PhaseGrid(4, 1.0)
    ss = sample(FockVector.basis_state(0), grid)
    assert np.allclose(ss.values, math.exp(-0.5), rtol=1e-14)


def test_sample_excited_mode_phases():
    N, p, n = 6, 2.0, 4
    grid = PhaseGrid(N, p)
    ss = sample(FockVector.basis_state(n), grid)
    mag = math.exp(-p / 2) * p ** (n / 2) / math.sqrt(math.factorial(n))
    k = np.arange(N)
    expect = mag * np.exp(-2j * np.pi * k * n / N)
    assert np.allclose(ss.values, expect, rtol=1e-13)


def test_sample_matches_pointwise_evaluation():
    # the grid-specialized path must agree with generic evaluation
    rng = np.random.default_rng(11)
    psi = unit_state(rng, 25)
    grid = PhaseGrid(9, 6.5)
    ss = sample(psi, grid)
    direct = evaluate(psi, grid.points())
    assert np.allclose(ss.values, direct, rtol=1e-12, atol=1e-15)


def test_sample_set_validation():
    grid = PhaseGrid(3, 1.0)
    with pytest.raises(ValueError):
        SampleSet(grid, np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        SampleSet("grid", np.zeros(3, dtype=complex))


# -- JSON round trips ---------------------------------------------------------


def test_state_json_round_trip():
    psi = FockVector([1.0 + 2.0j, -0.5], TailProfile(0.3, 1.25))
    data = json.loads(json.dumps(psi.to_json()))
    back = FockVector.from_json(data)
    assert np.array_equal(back.coefficients, psi.coefficients)
    assert back.tail == psi.tail

    plain = FockVector.from_json({"coefficients": [[1.0, 0.0]], "tail": None})
    assert plain.tail is None


# signed zeros, a subnormal, the largest double and digits a short repr must keep
_EDGE_VALUES = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                         complex(5e-324, -1.7976931348623157e308),
                         complex(0.1, 1.0 / 3.0), -2.5 + 1e-300j])


def _bits(values):
    return np.stack([values.real, values.imag], axis=-1).view(np.uint64)


def test_json_pairs_are_builtin_floats_and_keep_signed_zeros():
    psi = FockVector(_EDGE_VALUES)
    ss = SampleSet(PhaseGrid(len(_EDGE_VALUES), 2.0), _EDGE_VALUES)
    for pairs in (psi.to_json()["coefficients"], ss.to_json()["values"]):
        assert all(type(x) is float for pair in pairs for x in pair)
        assert np.array_equal(_bits(np.array([complex(*p) for p in pairs])),
                              _bits(_EDGE_VALUES))
    back = FockVector.from_json(json.loads(json.dumps(psi.to_json())))
    assert np.array_equal(_bits(back.coefficients), _bits(_EDGE_VALUES))
    back = SampleSet.from_json(json.loads(json.dumps(ss.to_json())))
    assert np.array_equal(_bits(back.values), _bits(_EDGE_VALUES))


def test_state_json_rejects_malformed():
    with pytest.raises(ValueError):
        FockVector.from_json({"tail": None})
    with pytest.raises(ValueError, match="malformed coefficient list"):
        FockVector.from_json({"coefficients": [[1.0]]})
    with pytest.raises(ValueError):
        FockVector.from_json({"coefficients": [[0.0, 0.0]], "tail": {"C": 1.0}})


def test_grid_and_samples_json_round_trip():
    grid = PhaseGrid(7, 2.25)
    assert PhaseGrid.from_json(grid.to_json()) == grid
    ss = SampleSet(grid, np.arange(7) * (1.0 - 0.5j))
    back = SampleSet.from_json(json.loads(json.dumps(ss.to_json())))
    assert back.grid == grid
    assert np.array_equal(back.values, ss.values)
    with pytest.raises(ValueError):
        PhaseGrid.from_json({"N": 3})
    with pytest.raises(ValueError, match="malformed sample values"):
        SampleSet.from_json({"grid": grid.to_json(), "values": [[1.0]]})


def test_subnormal_values_stay_finite():
    # 1/|v| overflows for a subnormal v; both routes scale it by 2^600 first
    assert evaluate(FockVector([1e-310]), 0.5) == pytest.approx(
        1e-310 * math.exp(-0.125), rel=1e-12
    )
    v = np.array([1e-310 - 3e-311j, 0.0, 2.0 + 1.0j])
    out = scale_by_exp(v, np.array([0.0, 5.0, 1.0]))
    assert np.all(np.isfinite(out)) and out[1] == 0
    assert np.allclose(out, v * np.exp([0.0, 5.0, 1.0]), rtol=1e-12, atol=0)
