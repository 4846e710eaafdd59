"""End-to-end CLI tests, run in process through main(argv)."""

import json
import math
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from importlib.metadata import entry_points
from pathlib import Path

import numpy as np
import pytest

import phaseframe
from phaseframe import (
    ExactReconstructor,
    FockVector,
    PartialReconstructor,
    PhaseGrid,
    PolarMesh,
    SampleSet,
    assess,
    droplet,
    evaluate,
    sample,
)
from phaseframe import cli as cli_module
from phaseframe import oracle
from phaseframe.cli import main
from phaseframe.spectral import SpectralData

# frozen from an independent 40-digit series evaluation (see test_spectral)
FOLDED_0_P1_N4 = 1.5328675039294386


def write_state(tmp_path, coeff, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(FockVector(coeff).to_json()))
    return str(path)


def write_samples(tmp_path, grid, values, name="samples.json"):
    path = tmp_path / name
    path.write_text(json.dumps(SampleSet(grid, values).to_json()))
    return str(path)


def unit_coeff(rng, length):
    a = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return a / np.linalg.norm(a)


# -- spectrum -----------------------------------------------------------------


def test_spectrum_csv(capsys):
    assert main(["spectrum", "--N", "4", "--p", "1.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "j,lambda_j,lambda_hat_j,nu_j"
    assert len(lines) == 5
    row0 = lines[1].split(",")
    assert row0[0] == "0"
    assert float(row0[1]) == pytest.approx(4.0 / math.e, rel=1e-15)
    assert float(row0[2]) == pytest.approx(FOLDED_0_P1_N4, rel=1e-14)
    # 17 significant digits, so the float round-trips exactly
    assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2,3}", row0[1])


def test_spectrum_json_to_file(tmp_path):
    out = tmp_path / "spec.json"
    assert main(
        ["spectrum", "--N", "4", "--p", "1.0", "--format", "json", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["N"] == 4
    assert payload["p"] == 1.0
    assert payload["series_tol"] == 1e-16
    assert payload["j"] == [0, 1, 2, 3]
    assert payload["lambda"][0] == pytest.approx(4.0 / math.e, rel=1e-15)
    assert payload["lambda_hat"][0] == pytest.approx(FOLDED_0_P1_N4, rel=1e-14)
    ratio = payload["lambda_hat"][0] / payload["lambda"][0] - 1.0
    assert payload["nu"][0] == pytest.approx(ratio, rel=1e-10)


def test_spectrum_csv_matches_json_bit_for_bit(capsys, tmp_path):
    main(["spectrum", "--N", "6", "--p", "2.5"])
    first = capsys.readouterr().out
    main(["spectrum", "--N", "6", "--p", "2.5"])
    assert capsys.readouterr().out == first
    out = tmp_path / "spec.json"
    main(["spectrum", "--N", "6", "--p", "2.5", "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    row3 = first.strip().splitlines()[4].split(",")
    assert float(row3[1]) == payload["lambda"][3]
    assert float(row3[2]) == payload["lambda_hat"][3]
    assert float(row3[3]) == payload["nu"][3]


@pytest.mark.parametrize("fmt,message", [
    ("json", "error: Out of range float values are not JSON compliant"),
    ("csv", "error: CSV column 'nu_j' holds a NaN or infinite value"),
], ids=["json", "csv"])
def test_spectrum_json_rejects_non_finite_values(fmt, message, tmp_path, capsys):
    # nu_0 overflows at N=1, p=1024: neither format writes inf, so the
    # command fails loudly and writes nothing
    out = tmp_path / f"spec.{fmt}"
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main(["spectrum", "--N", "1", "--p", "1024", "--format", fmt,
                     "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_spectrum_has_no_tolerance_option(capsys):
    # both series always run to double-precision convergence
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--N", "4", "--p", "1", "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


# -- sample + reconstruct -----------------------------------------------------


def test_sample_csv(capsys, tmp_path):
    state = write_state(tmp_path, [1.0])
    assert main(["sample", "--N", "3", "--p", "2.0", "--state", state]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,re,im"
    assert len(lines) == 4
    # the ground state samples to e^{-p/2} at every grid point
    for row in lines[1:]:
        _, re_s, im_s = row.split(",")
        assert float(re_s) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert float(im_s) == 0.0


def test_sample_then_reconstruct_exact(tmp_path, capsys):
    rng = np.random.default_rng(3)
    coeff = unit_coeff(rng, 4)
    state = write_state(tmp_path, coeff)
    samp = tmp_path / "samples.json"
    assert main(
        ["sample", "--N", "6", "--p", "3.5", "--state", state,
         "--format", "json", "--out", str(samp)]
    ) == 0
    rec = tmp_path / "rec.json"
    assert main(
        ["reconstruct", "--mode", "exact", "--samples", str(samp),
         "--format", "json", "--out", str(rec)]
    ) == 0
    payload = json.loads(rec.read_text())
    assert payload["mode"] == "exact"
    assert payload["grid"] == {"N": 6, "p": 3.5}
    got = np.array([complex(a, b) for a, b in payload["coefficients"]])
    assert len(got) == 6
    assert np.max(np.abs(got[:4] - coeff)) < 1e-10
    assert np.max(np.abs(got[4:])) < 1e-10
    capsys.readouterr()


def test_reconstruct_oracle_cross_check(capsys, tmp_path):
    rng = np.random.default_rng(9)
    state = write_state(tmp_path, unit_coeff(rng, 5))
    assert main(
        ["reconstruct", "--mode", "exact", "--state", state,
         "--N", "6", "--p", "3.5", "--oracle", "--format", "json"]
    ) == 0
    captured = capsys.readouterr()
    assert "oracle max coefficient deviation:" in captured.err
    payload = json.loads(captured.out)
    assert payload["oracle_deviation"] < 1e-10


def test_eval_mesh_angle_list_is_evaluated_point_by_point(capsys, tmp_path):
    # a comma list of angles is not a range, so its points r e^{i t} go
    # through evaluate as they are, bit for bit; a range is one PolarMesh
    # (test_json_is_one_sorted_line_of_library_values)
    psi = FockVector(unit_coeff(np.random.default_rng(13), 6))
    state = write_state(tmp_path, psi.coefficients)
    assert main(["reconstruct", "--mode", "exact", "--state", state, "--N", "8",
                 "--p", "4.0", "--eval-mesh", "0.5:1.5:3,2.5", "--format", "json"]) == 0
    evaluation = json.loads(capsys.readouterr().out)["evaluation"]
    zs = (np.linspace(0.5, 1.5, 3)[:, None] * np.exp(1j * np.array([2.5])[None, :])).ravel()
    rec = ExactReconstructor(N=8, p=4.0).dft_coefficients(sample(psi, PhaseGrid(8, 4.0)).values)
    for key, want in (("points", zs), ("values", evaluate(rec, zs)),
                      ("reference", evaluate(psi, zs))):
        assert np.array_equal(_bits(evaluation[key]), _bits(want)), key


def test_eval_mesh_angle_part_is_everything_after_the_first_comma(capsys, tmp_path):
    # '0.5:1.5:3,0,1,2.5' is 3 radii by the 3 angles 0, 1 and 2.5, point by point
    psi = FockVector(unit_coeff(np.random.default_rng(17), 6))
    state = write_state(tmp_path, psi.coefficients)
    assert main(["reconstruct", "--mode", "exact", "--state", state, "--N", "8",
                 "--p", "4.0", "--eval-mesh", "0.5:1.5:3,0,1,2.5", "--format", "json"]) == 0
    evaluation = json.loads(capsys.readouterr().out)["evaluation"]
    zs = (np.linspace(0.5, 1.5, 3)[:, None] * np.exp(1j * np.array([0.0, 1.0, 2.5])[None, :])).ravel()
    assert np.array_equal(_bits(evaluation["points"]), _bits(zs))
    assert np.array_equal(_bits(evaluation["reference"]), _bits(evaluate(psi, zs)))


def test_reconstruct_eval_mesh_csv(capsys, tmp_path):
    rng = np.random.default_rng(13)
    state = write_state(tmp_path, unit_coeff(rng, 6))
    assert main(
        ["reconstruct", "--mode", "exact", "--state", state, "--N", "8",
         "--p", "4.0", "--eval-mesh", "0.5:1.5:3,0:6.0:5"]
    ) == 0
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert len(blocks) == 2
    coeff_lines = blocks[0].splitlines()
    assert coeff_lines[0] == "n,re,im"
    assert len(coeff_lines) == 9
    eval_lines = blocks[1].splitlines()
    assert eval_lines[0] == (
        "re_z,im_z,re_value,im_value,re_true,im_true,abs_error,rel_error"
    )
    assert len(eval_lines) == 16
    rels = [float(line.split(",")[7]) for line in eval_lines[1:]]
    abss = [float(line.split(",")[6]) for line in eval_lines[1:]]
    assert max(abss) < 1e-12
    assert max(rels) < 1e-8


def test_reconstruct_partial_from_samples(tmp_path, capsys):
    # on-grid interpolation data need not come from any particular state
    grid = PhaseGrid(4, 2.0)
    values = np.array([0.3, -0.1 + 0.2j, 0.05j, 0.4 - 0.3j])
    samp = write_samples(tmp_path, grid, values)
    rec = tmp_path / "rec.json"
    assert main(
        ["reconstruct", "--mode", "partial", "--samples", samp,
         "--format", "json", "--out", str(rec)]
    ) == 0
    payload = json.loads(rec.read_text())
    assert payload["mode"] == "partial"
    got = FockVector(
        np.array([complex(a, b) for a, b in payload["coefficients"]])
    )
    from phaseframe import sample as sample_state

    back = sample_state(got, grid)
    assert np.max(np.abs(back.values - values)) < 1e-12
    capsys.readouterr()


def test_reconstruct_filtered_matches_exact(tmp_path, capsys):
    rng = np.random.default_rng(21)
    coeff = unit_coeff(rng, 3)
    state = write_state(tmp_path, coeff)
    base = ["--state", state, "--N", "5", "--p", "3.0", "--format", "json"]
    rec_f = tmp_path / "f.json"
    rec_e = tmp_path / "e.json"
    assert main(["reconstruct", "--mode", "filtered", "--M", "2",
                 *base, "--out", str(rec_f)]) == 0
    assert main(["reconstruct", "--mode", "exact", "--M", "2",
                 *base, "--out", str(rec_e)]) == 0
    cf = np.array([complex(a, b) for a, b in json.loads(rec_f.read_text())["coefficients"]])
    ce = np.array([complex(a, b) for a, b in json.loads(rec_e.read_text())["coefficients"]])
    assert np.max(np.abs(cf - ce)) < 1e-12
    assert np.max(np.abs(cf - coeff)) < 1e-12
    capsys.readouterr()


# -- malformed input ----------------------------------------------------------


def test_main_parses_with_the_parser_built_at_import(monkeypatch, capsys):
    # one parser serves every call, so a fresh build is never needed
    def broken():
        raise AssertionError("build_parser called after import")

    monkeypatch.setattr(cli_module, "build_parser", broken)
    for _ in range(2):
        assert main(["droplet", "--M", "3", "--p-range", "1,2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["M"] == [3]
    with pytest.raises(SystemExit) as exc:  # argparse's usage error
        main(["spectrum", "--N", "2"])
    assert exc.value.code == 2 and "--p" in capsys.readouterr().err


def test_reconstruct_rejects_m_in_partial_mode(tmp_path, capsys):
    samp = write_samples(tmp_path, PhaseGrid(4, 2.0), np.ones(4))
    assert main(
        ["reconstruct", "--mode", "partial", "--M", "2", "--samples", samp]
    ) == 2
    assert "materializes every alias" in capsys.readouterr().err


def test_reconstruct_mode_m_window(tmp_path, capsys):
    state = write_state(tmp_path, [1.0, 0.5])
    base = ["--state", state, "--N", "4", "--p", "2.0"]
    assert main(["reconstruct", "--mode", "exact", "--M", "4", *base]) == 2
    assert "in-band recovery needs M < N" in capsys.readouterr().err
    assert main(["reconstruct", "--mode", "exact", "--M", "-1", *base]) == 2
    assert main(["reconstruct", "--mode", "filtered", "--M", "7", *base]) == 2
    assert "in-band recovery needs M < N" in capsys.readouterr().err


def test_m_at_n_is_one_message_on_every_band_route(tmp_path, capsys):
    message = "in-band recovery needs M < N (strict oversampling); got M = 4, N = 4"
    x = np.ones(4, dtype=complex)
    partial = PartialReconstructor(N=4, p=2.0)
    for route in (lambda: ExactReconstructor(N=4, p=2.0, M=4).fit(x),
                  lambda: partial.filter_factors(4),
                  lambda: partial.reconstruct_filtered(x, 4)):
        with pytest.raises(ValueError) as exc:
            route()
        assert str(exc.value) == message
    samp = write_samples(tmp_path, PhaseGrid(4, 2.0), x)
    for mode in ("exact", "filtered"):
        assert main(["reconstruct", "--mode", mode, "--M", "4", "--samples", samp]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_reconstruct_needs_input(capsys):
    assert main(["reconstruct", "--mode", "exact", "--N", "4", "--p", "2.0"]) == 2
    assert "--samples and/or --state" in capsys.readouterr().err


@pytest.mark.parametrize("grid,code", [
    ({"N": 4, "p": 2}, 0), ({"N": 4, "p": 2.0}, 0),
    ({"N": 4.7, "p": 2.0}, 2), ({"N": "4", "p": 2.0}, 2), ({"N": 4, "p": "2"}, 2),
    ({"N": None, "p": 2.0}, 2), ({"N": 4, "p": [2.0]}, 2),
])
def test_sample_file_grid_needs_an_integer_N_and_a_real_p(tmp_path, capsys, grid, code):
    data = SampleSet(PhaseGrid(4, 2.0), np.ones(4)).to_json()
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({**data, "grid": grid}))
    assert main(["reconstruct", "--mode", "exact", "--samples", str(path)]) == code
    if code:
        assert "cannot load sample file" in capsys.readouterr().err


def test_reconstruct_grid_conflicts(tmp_path, capsys):
    samp = write_samples(tmp_path, PhaseGrid(4, 2.5), np.ones(4))
    assert main(
        ["reconstruct", "--mode", "exact", "--samples", samp, "--N", "5"]
    ) == 2
    assert "conflicts" in capsys.readouterr().err
    assert main(
        ["reconstruct", "--mode", "exact", "--samples", samp, "--p", "3.0"]
    ) == 2
    assert "conflicts" in capsys.readouterr().err


def test_bad_state_files(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("not json{")
    base = ["reconstruct", "--mode", "exact", "--N", "4", "--p", "2.0", "--state"]
    assert main([*base, str(broken)]) == 2
    assert "cannot load state file" in capsys.readouterr().err
    assert main([*base, str(tmp_path / "missing.json")]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"foo": 1}))
    assert main([*base, str(schema)]) == 2
    assert "coefficients" in capsys.readouterr().err


def test_bad_grid_parameters(capsys):
    assert main(["spectrum", "--N", "0", "--p", "1.0"]) == 2
    assert main(["spectrum", "--N", "4", "--p", "-3.0"]) == 2
    capsys.readouterr()


# -- oracle size cap ----------------------------------------------------------


def test_partial_oracle_oversized_exits_3(tmp_path, capsys):
    samp = write_samples(tmp_path, PhaseGrid(4, 1500.0), np.ones(4))
    assert main(
        ["reconstruct", "--mode", "partial", "--samples", samp, "--oracle"]
    ) == 3
    assert "cap" in capsys.readouterr().err


# -- error-sweep --------------------------------------------------------------


def test_error_sweep_with_oracle(tmp_path, capsys):
    rng = np.random.default_rng(31)
    state = write_state(tmp_path, unit_coeff(rng, 6))
    assert main(
        ["error-sweep", "--N", "4,8", "--p", "2:4:3", "--state", state, "--oracle"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,p,epsilon_N,nu0,bound,bound_filtered,measured"
    assert len(lines) == 7
    for line in lines[1:]:
        cells = line.split(",")
        bound, measured = float(cells[4]), float(cells[6])
        assert measured <= bound + 1e-9


def test_error_sweep_json_without_oracle(tmp_path, capsys):
    state = write_state(tmp_path, [1.0])
    assert main(
        ["error-sweep", "--N", "2", "--p", "1.5", "--state", state,
         "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    [row] = payload["rows"]
    assert row["N"] == 2
    assert row["measured"] is None
    assert row["epsilon_N"] == 0.0


# -- droplet ------------------------------------------------------------------


def test_droplet_curves(capsys):
    assert main(["droplet", "--M", "10,100", "--p-range", "0:220:23"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p,P_10,P_100"
    assert len(lines) == 24
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert table[0, 1] == 1.0
    assert table[0, 2] == 1.0
    assert np.all(np.diff(table[:, 1]) <= 1e-15)
    assert np.all(np.diff(table[:, 2]) <= 1e-15)


def test_droplet_rejects_bad_lists(capsys):
    assert main(["droplet", "--M=-2", "--p-range", "0:10:5"]) == 2
    assert main(["droplet", "--M", "3", "--p-range=-1,2"]) == 2
    capsys.readouterr()


# -- validate -----------------------------------------------------------------


def test_validate_passes_on_safe_grid(capsys):
    assert main(["validate", "--N", "6", "--p", "4.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS") for line in lines)


def test_validate_flags_unstable_round_trip(capsys):
    # N = 40 at p = 0.5 divides by weights ~1e-57, far beyond double range
    assert main(["validate", "--N", "40", "--p", "0.5"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert any(line.startswith("FAIL exact round trip") for line in lines)
    assert "of 7 checks failed" in captured.err


def _status(lines):
    return {line.split(" ", 1)[1].split(":")[0]: line.split(" ", 1)[0] for line in lines}


def _validate_lines(capsys, N, p):
    main(["validate", "--N", str(N), "--p", str(p)])
    return _status(capsys.readouterr().out.strip().splitlines())


def test_validate_spectral_checks_scale_with_norm_of_overlap(capsys):
    # lhat_0 ~ 2.6e-7 is 4e7 times below max(lhat) here; both checks are
    # relative to max(lhat), the norm of B, not to lhat_0
    status = _validate_lines(capsys, 128, 20.0)
    assert status["eigenvalue series vs DFT (scale-relative)"] == "PASS"
    assert status["dense circulant eigencheck"] == "PASS"


PERTURBATIONS = pytest.mark.parametrize(
    "module,rel,check",
    [
        # the series eigenvalues against the FFT of the first row
        ("spectral", 1e-8, "eigenvalue series vs DFT (scale-relative)"),
        # the residual on unit Fourier columns, scaled by sqrt(N), reads an
        # eigenvalue error d as d against 1e-9 max(lhat)
        ("oracle", 1e-7, "dense circulant eigencheck"),
        ("oracle", 1e-8, "dense circulant eigencheck"),
    ],
)


def _perturbed_status(capsys, monkeypatch, module, rel, N):
    exact = phaseframe.spectral.folded_weight

    def perturbed(p, N):
        out = exact(p, N)
        out[0] += rel * np.max(out)
        return out

    monkeypatch.setattr(getattr(phaseframe, module), "folded_weight", perturbed)
    return _validate_lines(capsys, N, 20.0)


@PERTURBATIONS
def test_validate_flags_perturbed_eigenvalue(capsys, monkeypatch, module, rel, check):
    # N = 128: the eigencheck reads every row of B
    assert _perturbed_status(capsys, monkeypatch, module, rel, 128)[check] == "FAIL"


@PERTURBATIONS
def test_validate_flags_perturbed_eigenvalue_on_sampled_rows(
    capsys, monkeypatch, module, rel, check
):
    # N = 256: the eigencheck reads 128 of the rows of B
    assert _perturbed_status(capsys, monkeypatch, module, rel, 256)[check] == "FAIL"


def test_validate_runs_past_the_old_dense_cap(capsys):
    # N = 129 exited 3 while the eigencheck built B densely up to N = 128
    assert main(["validate", "--N", "129", "--p", "10.0"]) in (0, 1)
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 7
    assert "cap" not in captured.out + captured.err
    status = _status(lines)
    for check in ("weight partition sum", "eigenvalue series vs DFT (scale-relative)",
                  "dense circulant eigencheck", "exact kernel route reproduces the samples",
                  "interpolation kernel delta property"):
        assert status[check] == "PASS", check


def test_validate_kernel_route_tolerance_follows_the_samples(capsys, monkeypatch):
    # max|samples| is 1.9e-47 at N = 129, p = 512, so an absolute 1e-9 passes
    # any error; an error of 1e-6 max|samples| must fail the line
    exact = ExactReconstructor.reconstruct

    def off(self, X, z):
        return exact(self, X, z) + 1e-6 * np.abs(X.values).max()

    monkeypatch.setattr(ExactReconstructor, "reconstruct", off)
    assert main(["validate", "--N", "129", "--p", "512"]) == 1
    status = _status(capsys.readouterr().out.strip().splitlines())
    assert status["exact kernel route reproduces the samples"] == "FAIL"


@pytest.mark.filterwarnings("ignore:mode weights below 1e-300:RuntimeWarning")
def test_validate_samples_the_kernels_past_128(capsys):
    # both kernel lines read the 128 points that dense_eig_check reads, so
    # N = 16384 runs in about a second (73 s while they read all N points);
    # the round trip and the nu0 overflow still fail on this grid
    start = time.perf_counter()
    code = main(["validate", "--N", "16384", "--p", "8192"])
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert [line.split(" ", 1)[0] for line in lines].count("PASS") == 5
    status = _status(lines)
    assert status["exact round trip on this grid"] == "FAIL"
    assert status["measured error within bound"] == "FAIL"
    assert elapsed < 20.0


@pytest.mark.filterwarnings("ignore:mode weights below 1e-300:RuntimeWarning")
def test_validate_delta_line_reads_each_kernels_own_point(capsys, monkeypatch):
    # past N = 128 the delta line still reads the 1 at z_k: a kernel that
    # misses it by 1e-6 there, and nowhere else, fails the line; at N = 1000
    # no k drawn at seed 0 is one of the 128 sampled points
    N, p = 1000, 20.0
    pts = PhaseGrid(N, p).points()
    exact = PartialReconstructor.lagrange_kernel

    def off(self, k, z):
        return exact(self, k, z) - 1e-6 * (np.abs(z - pts[k]) < 1e-9)

    assert _validate_lines(capsys, N, p)["interpolation kernel delta property"] == "PASS"
    monkeypatch.setattr(PartialReconstructor, "lagrange_kernel", off)
    assert _validate_lines(capsys, N, p)["interpolation kernel delta property"] == "FAIL"


# -- top level ----------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "phaseframe" in capsys.readouterr().out


def test_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def console_script_installed():
    return any(
        ep.name == "phaseframe" for ep in entry_points(group="console_scripts")
    )


@pytest.mark.skipif(
    not console_script_installed(),
    reason="no 'phaseframe' console_scripts entry point is installed in this "
    "interpreter (pip install -e . provides it)",
)
def test_console_script_installed():
    exe = shutil.which("phaseframe")
    assert exe is not None
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "phaseframe" in proc.stdout


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("phaseframe") == "phaseframe.cli:main"
    # run the target the way a console-script wrapper does
    wrapper = (
        "import importlib, sys\n"
        "module, _, attr = sys.argv[1].partition(':')\n"
        "sys.argv = ['phaseframe', '--version']\n"
        "sys.exit(getattr(importlib.import_module(module), attr)())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, scripts["phaseframe"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"phaseframe {phaseframe.__version__}"


# -- one emitter: CSV cells against the JSON payload ---------------------------


def _csv_tables(text):
    """CSV output as a list of tables, each a dict name -> column of cells."""
    tables = []
    for block in text.strip("\n").split("\n\n"):
        header, *rows = (line.split(",") for line in block.splitlines())
        tables.append({name: [row[i] for row in rows] for i, name in enumerate(header)})
    return tables


def _json_tables(command, payload):
    """The JSON values each CSV column of `command` must carry, table by table."""
    if command == "spectrum":
        keys = {"j": "j", "lambda_j": "lambda", "lambda_hat_j": "lambda_hat",
                "nu_j": "nu"}
        return [{name: payload[key] for name, key in keys.items()}]
    if command == "sample":
        values = payload["values"]
        return [{"k": list(range(len(values))), "re": [v[0] for v in values],
                 "im": [v[1] for v in values]}]
    if command == "reconstruct":
        coeffs, ev = payload["coefficients"], payload["evaluation"]
        pairs = {"z": ev["points"], "value": ev["values"], "true": ev["reference"]}
        mesh = {f"{part}_{name}": [v[i] for v in column]
                for name, column in pairs.items()
                for i, part in enumerate(("re", "im"))}
        mesh.update(abs_error=ev["abs_error"], rel_error=ev["rel_error"])
        return [{"n": list(range(len(coeffs))), "re": [c[0] for c in coeffs],
                 "im": [c[1] for c in coeffs]}, mesh]
    if command == "error-sweep":
        rows = payload["rows"]
        return [{key: [row[key] for row in rows] for key in rows[0]}]
    assert command == "droplet"
    curves = {f"P_{M}": payload["values"][str(M)] for M in payload["M"]}
    return [{"p": payload["p"], **curves}]


@pytest.mark.parametrize(
    "command", ["spectrum", "sample", "reconstruct", "error-sweep", "droplet"]
)
def test_csv_cells_are_the_json_values(command, tmp_path, capsys):
    rng = np.random.default_rng(17)
    state = write_state(tmp_path, unit_coeff(rng, 6))
    argv = {
        "spectrum": ["spectrum", "--N", "6", "--p", "2.5"],
        "sample": ["sample", "--N", "8", "--p", "3.0", "--state", state],
        "reconstruct": ["reconstruct", "--mode", "partial", "--N", "4", "--p", "2.0",
                        "--state", state, "--eval-mesh", "0:3:4,0:6:5"],
        "error-sweep": ["error-sweep", "--N", "4,8", "--p", "0.5:6:4",
                        "--state", state, "--oracle"],
        "droplet": ["droplet", "--M", "0,7,7,40", "--p-range", "0:60:13"],
    }[command]
    assert main(argv) == 0
    csv = _csv_tables(capsys.readouterr().out)
    assert main(argv + ["--format", "json"]) == 0
    expected = _json_tables(command, json.loads(capsys.readouterr().out))
    assert len(csv) == len(expected)
    for table, want in zip(csv, expected):
        assert table.keys() == want.keys()
        for name, cells in table.items():
            assert len(cells) == len(want[name])
            for cell, value in zip(cells, want[name]):
                parse = int if isinstance(value, int) else float
                assert parse(cell) == value, (name, cell, value)


# -- JSON: one sorted line carrying the library's values bit for bit -------------


def _bits(values):
    """float64 bit patterns; complex values as [re, im] pairs."""
    a = np.asarray(values)
    if np.iscomplexobj(a):
        a = np.stack([a.real, a.imag], axis=-1)
    return np.asarray(a, dtype=float).view(np.uint64)


def _json_case(case, state, psi):
    """argv of one --format json command and the library values its payload
    must carry, keyed by (nested) payload field."""
    grid = PhaseGrid(8, 3.0)
    mesh = "0:3:4,0:6:5"
    zs = (np.linspace(0, 3, 4)[:, None] * np.exp(1j * np.linspace(0, 6, 5))).ravel()
    if case == "spectrum":
        data = SpectralData.build(grid, 7)
        return ["spectrum", "--N", "8", "--p", "3.0"], {
            ("j",): np.arange(8), ("lambda",): data.weights[:8],
            ("lambda_hat",): data.folded, ("nu",): data.excess}
    if case == "sample":
        values = sample(psi, grid).values
        return ["sample", "--N", "8", "--p", "3.0", "--state", state], {
            ("values",): values, ("grid", "N"): 8, ("grid", "p"): 3.0}
    if case == "error-sweep":
        expected = {}
        for i, (N, p) in enumerate([(4, 0.5), (4, 6.0), (8, 0.5), (8, 6.0)]):
            report = assess(psi, PhaseGrid(N, p), measure=True).to_json()
            for key in ("epsilon_N", "nu0", "bound", "bound_filtered", "measured"):
                expected[("rows", i, key)] = report[key]
        return ["error-sweep", "--N", "4,8", "--p", "0.5,6", "--state", state,
                "--oracle"], expected
    if case == "droplet":
        ps = np.linspace(0, 60, 13)
        return ["droplet", "--M", "0,7,40", "--p-range", "0:60:13"], {
            ("p",): ps, **{("values", str(M)): [droplet(M, p) for p in ps]
                           for M in (0, 7, 40)}}
    # reconstruct; partial on a grid where alias parts underflow to -0.0
    mode = case.split("-")[1]
    if mode == "partial":
        grid = PhaseGrid(64, 32.0)
        rec = PartialReconstructor(N=64, p=32.0).alias_coefficients(
            sample(psi, grid).values)
        window = []
    else:
        rec = ExactReconstructor(N=8, p=3.0, M=4).dft_coefficients(
            sample(psi, grid).values)
        window = ["--M", "4"]
    # an equispaced angle range is one PolarMesh; its points stay the r-major zs
    polar = PolarMesh(np.linspace(0, 3, 4), 0.0, 6.0, 5)
    assert np.array_equal(_bits(polar.points().ravel()), _bits(zs))
    values, ref = evaluate(rec, polar).ravel(), evaluate(psi, polar).ravel()
    argv = ["reconstruct", "--mode", mode, *window, "--N", str(grid.N),
            "--p", str(grid.p), "--state", state, "--eval-mesh", mesh]
    return argv, {
        ("coefficients",): rec.coefficients, ("mode",): mode,
        ("evaluation", "points"): zs, ("evaluation", "values"): values,
        ("evaluation", "reference"): ref,
        ("evaluation", "abs_error"): np.abs(values - ref)}


@pytest.mark.parametrize("case", [
    "spectrum", "sample", "reconstruct-exact", "reconstruct-partial",
    "reconstruct-filtered", "error-sweep", "droplet"])
def test_json_is_one_sorted_line_of_library_values(case, tmp_path, capsys):
    coeff = unit_coeff(np.random.default_rng(17), 6)
    argv, expected = _json_case(case, write_state(tmp_path, coeff), FockVector(coeff))
    assert main(argv + ["--format", "json"]) == 0
    text = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()
    # one line, keys sorted, no whitespace beyond json.dumps' separators
    assert text.endswith("\n") and text.count("\n") == 1
    payload = json.loads(text)
    assert json.dumps(payload, sort_keys=True) == text.rstrip("\n")
    for path, want in expected.items():
        got = payload
        for key in path:
            got = got[key]
        if isinstance(want, str):
            assert got == want, path
        else:
            assert np.array_equal(_bits(got), _bits(want)), path
    if case == "reconstruct-partial":
        # the case carries signed zeros (62 of them with numpy 2.4 on x86-64)
        assert np.any(_bits(payload["coefficients"]) == _bits(-0.0))


# -- reconstruct: filtered oracle, non-finite mesh ------------------------------


def test_reconstruct_filtered_oracle_agrees(tmp_path, capsys):
    rng = np.random.default_rng(23)
    state = write_state(tmp_path, unit_coeff(rng, 6))
    assert main(
        ["reconstruct", "--mode", "filtered", "--M", "5", "--N", "8", "--p", "3.0",
         "--state", state, "--oracle", "--format", "json"]
    ) == 0
    captured = capsys.readouterr()
    deviation = json.loads(captured.out)["oracle_deviation"]
    assert 0.0 <= deviation < 1e-10
    assert "oracle max coefficient deviation" in captured.err


def test_partial_oracle_reads_the_samples(tmp_path, capsys, monkeypatch):
    # the referee is T* B^-1 Psi of the samples: aliases of other samples lie
    # in the sample span too, so a projection of the output would pass them
    rng = np.random.default_rng(31)
    state = write_state(tmp_path, unit_coeff(rng, 6))
    argv = ["reconstruct", "--mode", "partial", "--N", "6", "--p", "3.5",
            "--state", state, "--oracle", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["oracle_deviation"] < 1e-10
    honest = PartialReconstructor.alias_coefficients
    monkeypatch.setattr(PartialReconstructor, "alias_coefficients",
                        lambda self, X: honest(self, 2.0 * np.asarray(X)[::-1]))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["oracle_deviation"] > 1e-6


def test_filtered_oracle_caps_the_gram_solve_before_building_it(tmp_path, capsys,
                                                                monkeypatch):
    def built(grid):
        raise AssertionError(f"an N x N Gram matrix was built at N = {grid.N}")

    monkeypatch.setattr(oracle, "overlap_from_points", built)
    state = write_state(tmp_path, [1.0, 0.5])
    assert main(["reconstruct", "--mode", "filtered", "--M", "5", "--N", "2002",
                 "--p", "3", "--state", state, "--oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dense Gram solve cap is N - 1 <= 2000, got N = 2002" in captured.err


@pytest.mark.parametrize("N", [16, 64])
def test_filtered_oracle_past_double_range_exits_3(tmp_path, capsys, N):
    # at p = 1000 lam_0 = N e^{-1000} underflows, so 1 + nu_n overflows and
    # the dense reference is 0 * inf; N = 64 used to stop at the frame cap
    state = write_state(tmp_path, np.ones(N // 2))
    with pytest.warns(RuntimeWarning, match="mode weights below"):
        code = main(["reconstruct", "--mode", "filtered", "--N", str(N), "--p", "1000",
                     "--state", state, "--oracle", "--format", "json"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "leaves double range on the grid" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mesh", ["inf:inf:1,0:1:1", "nan:1:2,0:1:1", "0:1:2,0:inf:3",
                                  "1,inf", "0:1:2,nan"])
@pytest.mark.parametrize("mode", ["exact", "partial", "filtered"])
def test_reconstruct_non_finite_mesh_exits_2(mode, mesh, tmp_path, capsys):
    # the parser rejects the value before numpy sees it, so no RuntimeWarning
    samp = write_samples(tmp_path, PhaseGrid(4, 2.0), np.ones(4))
    code = main(["reconstruct", "--mode", mode, "--samples", samp,
                 "--eval-mesh", mesh, "--format", "json"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_non_finite_mesh_stderr_holds_only_the_error(tmp_path):
    samp = write_samples(tmp_path, PhaseGrid(4, 2.0), np.ones(4))
    src = str(Path(phaseframe.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "phaseframe.cli", "reconstruct", "--mode", "exact",
         "--samples", samp, "--eval-mesh", "inf:inf:1,0:1:1"],
        capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "must be finite" in proc.stderr
    assert "Warning" not in proc.stderr


# -- oracle caps before dense work ----------------------------------------------


def test_error_sweep_oracle_beyond_caps_exits_3(tmp_path, capsys):
    state = write_state(tmp_path, [1.0, 0.5])
    assert main(
        ["error-sweep", "--N", "64", "--p", "10", "--state", state, "--oracle"]
    ) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cap" in captured.err


def test_validate_builds_no_n_by_n_array(capsys):
    # one N x N complex matrix at N = 1024 is 16.8 MB; the round trip's
    # weights leave double range here, and its recover error is a FAIL line
    tracemalloc.start()
    try:
        with pytest.warns(RuntimeWarning, match=r"1e-300\*N"):
            code = main(["validate", "--N", "1024", "--p", "5.0"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 4_000_000
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 7
    assert any(
        line.startswith("FAIL exact round trip on this grid: coefficients must "
                        "contain only finite entries")
        for line in lines
    )
    assert "of 7 checks failed" in captured.err
    assert "error:" not in captured.err
