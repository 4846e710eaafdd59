"""Aim 1 of ROADMAP.md as tests: the headline table at N=16384, p=8192.

The state is a random unit vector on the Poisson window p +- 8 sqrt(p)
(modes 7468..8916), where a state sampled on the circle |z|^2 = p lives.
Each test states the end goal of one row of the table.  A row that fails
today is a strict xfail pinned to today's failure, so a regression shows,
and the change that mends a row must remove its marker.  A row that warns
today states its warning with pytest.warns.
"""

import json
import math
import re

import numpy as np
import pytest

from phaseframe import ExactReconstructor, FockVector, PhaseGrid, evaluate, sample
from phaseframe.cli import main

N, P = 16384, 8192.0
LO, HI = math.ceil(P - 8.0 * math.sqrt(P)), math.floor(P + 8.0 * math.sqrt(P))
GRID_ARGS = ["--N", str(N), "--p", str(P)]


class InputError(Exception):
    """The command exited 2: malformed input, or a value past double range."""


class CheckFailed(Exception):
    """validate exited 1: at least one of its checks failed."""


@pytest.fixture(scope="module")
def psi():
    rng = np.random.default_rng(0)
    a = np.zeros(HI + 1, dtype=complex)
    a[LO:] = rng.standard_normal(HI + 1 - LO) + 1j * rng.standard_normal(HI + 1 - LO)
    return FockVector(a / np.linalg.norm(a))


@pytest.fixture(scope="module")
def state_file(psi, tmp_path_factory):
    path = tmp_path_factory.mktemp("aim1") / "state.json"
    path.write_text(json.dumps(psi.to_json()))
    return str(path)


def run(argv, capsys) -> str:
    """stdout of `phaseframe argv`, or the exception its exit code names."""
    code = main(argv)
    out, err = capsys.readouterr()
    if code == 2:
        raise InputError(err)
    if code == 1:
        raise CheckFailed(out + err)
    assert code == 0
    return out


def off_circle_error(psi, radius: float) -> float:
    """Max relative error of the exact kernel route (M = N-1) at 10 angles
    on |z| = radius sqrt(p), against evaluate(truth)."""
    grid = PhaseGrid(N, P)
    rec = ExactReconstructor(N=N, p=P, M=N - 1)
    angles = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, 10)
    z = radius * math.sqrt(P) * np.exp(1j * angles)
    ref = evaluate(psi, z)
    got = rec.reconstruct(sample(psi, grid), z)
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


# today: mode 0's scale is 10^1774.7
@pytest.mark.xfail(strict=True, raises=InputError, reason="ROADMAP item 1")
def test_reconstruct_exact_exits_0(state_file, capsys):
    with pytest.warns(RuntimeWarning, match="mode weights below 1e-300"):
        run(["reconstruct", "--mode", "exact", *GRID_ARGS, "--state", state_file,
             "--format", "json"], capsys)


# today: mode 686's scale is 10^323.9
@pytest.mark.xfail(strict=True, raises=InputError, reason="ROADMAP item 1")
def test_reconstruct_partial_exits_0(state_file, capsys):
    run(["reconstruct", "--mode", "partial", *GRID_ARGS, "--state", state_file,
         "--format", "json"], capsys)


# today: nu0 = 10^2180.90, and (1 + nu0)^2 is past double range
@pytest.mark.xfail(strict=True, raises=InputError, reason="ROADMAP item 3")
def test_error_sweep_rows_are_finite(state_file, capsys):
    out = run(["error-sweep", *GRID_ARGS, "--state", state_file, "--format", "json"],
              capsys)
    for row in json.loads(out)["rows"]:
        assert all(math.isfinite(row[key]) for key in ("epsilon_N", "nu0", "bound",
                                                        "bound_filtered"))


# today: nu_j overflows (1,177 of them), and JSON has no inf
@pytest.mark.xfail(strict=True, raises=InputError, reason="ROADMAP item 3")
def test_spectrum_json_exits_0(capsys):
    with pytest.warns(RuntimeWarning, match="overflow"):
        run(["spectrum", *GRID_ARGS, "--format", "json"], capsys)


# today: the exact round trip and the measured-error line fail
@pytest.mark.xfail(strict=True, raises=CheckFailed, reason="ROADMAP item 4")
def test_validate_exits_0(capsys):
    with pytest.warns(RuntimeWarning, match="mode weights below 1e-300"):
        run(["validate", *GRID_ARGS], capsys)


# today: about 2e20, with no warning
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 9")
def test_exact_kernel_route_just_inside_the_circle(psi):
    assert off_circle_error(psi, 0.99) <= 1e-6


def test_exact_kernel_route_at_0_9_root_p_is_right_or_names_its_overflow(psi):
    try:
        error = off_circle_error(psi, 0.9)
    except ValueError as exc:
        assert re.search(r"series value at \|z\| = \S+ is 10\^\S+, past double range",
                         str(exc))
    else:
        assert error <= 1e-6
