"""Command-line interface.

Subcommands
-----------
spectrum     per-index weight table (lambda, lambda_hat, nu) of a grid
sample       evaluate a state on a phase grid
reconstruct  recover coefficients from samples (exact, partial or filtered)
error-sweep  error budget of one state over a grid family
droplet      truncation-projector expectation curves P_M(p)
validate     self-check of the analytic paths against the dense oracle

Exit codes: 0 success, 1 validation failure, 2 malformed input or an
inconsistent mode/M combination, 3 oracle size cap exceeded.  All output is
deterministic; CSV numbers carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import (
    assess,
    droplet,
    error_bound,
    filtered_error_bound,
    truncation_epsilon,
)
from .exact import ExactReconstructor
from .fock import FockVector, PhaseGrid, SampleSet, evaluate, load_json, sample
from .oracle import (
    DenseFrame,
    OracleSizeError,
    dense_eig_check,
    dense_project,
    dense_pseudoinverse_fit,
    measured_error_sq,
)
from .partial import PartialReconstructor
from .spectral import (
    SpectralData,
    aliasing_excess,
    build_overlap,
    default_n_max,
    rfm_orthogonality_defect,
)

_EXIT_INPUT = 2
_EXIT_ORACLE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = _EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", out_path)


def _emit_csv(header: list[str], rows: list[list[str]], out_path: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write("\n".join(lines) + "\n", out_path)


def _load_state(path: str) -> FockVector:
    try:
        return FockVector.from_json(load_json(path))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise CliError(f"cannot load state file {path!r}: {exc}") from exc


def _load_samples(path: str) -> SampleSet:
    try:
        return SampleSet.from_json(load_json(path))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise CliError(f"cannot load sample file {path!r}: {exc}") from exc


def _build_grid(N, p) -> PhaseGrid:
    if N is None or p is None:
        raise CliError("this command needs both --N and --p")
    try:
        return PhaseGrid(N, p)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_int_list(spec: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in spec.split(",") if tok != ""]
    except ValueError as exc:
        raise CliError(f"{flag} expects a comma-separated integer list: {exc}") from exc
    if not values:
        raise CliError(f"{flag} must name at least one value")
    return values


def _parse_float_spec(spec: str, flag: str) -> list[float]:
    """Either a comma list '1,2.5,8' or a linspace 'start:stop:count'."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliError(f"{flag} range must look like start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise CliError(f"malformed {flag} range: {exc}") from exc
        if count < 1:
            raise CliError(f"{flag} range count must be >= 1")
        return [float(x) for x in np.linspace(start, stop, count)]
    try:
        values = [float(tok) for tok in spec.split(",") if tok != ""]
    except ValueError as exc:
        raise CliError(f"{flag} expects numbers: {exc}") from exc
    if not values:
        raise CliError(f"{flag} must name at least one value")
    return values


def _parse_eval_mesh(spec: str) -> np.ndarray:
    """Polar mesh 'r0:r1:nr,t0:t1:nt' -> complex points r e^{i t}, r-major."""
    parts = spec.split(",")
    if len(parts) != 2:
        raise CliError("--eval-mesh must look like r0:r1:nr,t0:t1:nt")
    radii = _parse_float_spec(parts[0], "--eval-mesh radius")
    thetas = _parse_float_spec(parts[1], "--eval-mesh angle")
    if any(r < 0 for r in radii):
        raise CliError("--eval-mesh radii must be >= 0")
    rs = np.asarray(radii)
    ts = np.asarray(thetas)
    return (rs[:, None] * np.exp(1j * ts[None, :])).ravel()


# -- subcommands ------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    grid = _build_grid(args.N, args.p)
    data = SpectralData.build(grid, series_tol=args.tol)
    weights = data.weights
    if args.format == "csv":
        rows = [
            [str(j), _fmt(weights[j]), _fmt(data.folded[j]), _fmt(data.excess[j])]
            for j in range(grid.N)
        ]
        _emit_csv(["j", "lambda_j", "lambda_hat_j", "nu_j"], rows, args.out)
    else:
        payload = {
            "N": grid.N,
            "p": grid.p,
            "series_tol": data.series_tol,
            "j": list(range(grid.N)),
            "lambda": [float(x) for x in weights[: grid.N]],
            "lambda_hat": [float(x) for x in data.folded],
            "nu": [float(x) for x in data.excess],
        }
        _emit_json(payload, args.out)
    return 0


def _cmd_sample(args) -> int:
    grid = _build_grid(args.N, args.p)
    psi = _load_state(args.state)
    samples = sample(psi, grid)
    if args.format == "csv":
        rows = [
            [str(k), _fmt(v.real), _fmt(v.imag)]
            for k, v in enumerate(samples.values)
        ]
        _emit_csv(["k", "re", "im"], rows, args.out)
    else:
        _emit_json(samples.to_json(), args.out)
    return 0


def _reconstruct_inputs(args):
    if args.samples is None and args.state is None:
        raise CliError("reconstruct needs --samples and/or --state")
    truth = _load_state(args.state) if args.state is not None else None
    if args.samples is not None:
        sset = _load_samples(args.samples)
        if args.N is not None and args.N != sset.grid.N:
            raise CliError(
                f"--N {args.N} conflicts with the sample file grid N = {sset.grid.N}"
            )
        if args.p is not None and float(args.p) != sset.grid.p:
            raise CliError(
                f"--p {args.p} conflicts with the sample file grid p = {sset.grid.p}"
            )
        return sset, truth
    grid = _build_grid(args.N, args.p)
    return sample(truth, grid), truth


def _cmd_reconstruct(args) -> int:
    sset, truth = _reconstruct_inputs(args)
    grid = sset.grid
    mode = args.mode
    oracle_dev = None

    if mode == "exact":
        M = grid.N - 1 if args.M is None else args.M
        if M < 0 or M >= grid.N:
            raise CliError(
                f"exact mode needs 0 <= M < N; got M = {M}, N = {grid.N}"
            )
        rec = ExactReconstructor(N=grid.N, p=grid.p, M=M, series_tol=args.tol)
        state = rec.dft_coefficients(sset.values)
        if args.oracle:
            frame = DenseFrame.build(grid, max(M, grid.N - 1))
            ref = dense_pseudoinverse_fit(frame, M, sset.values)
            oracle_dev = float(np.max(np.abs(state.coefficients - ref)))
    elif mode == "partial":
        if args.M is not None:
            raise CliError(
                "partial mode materializes every alias; --M only applies to "
                "exact or filtered mode"
            )
        rec = PartialReconstructor(N=grid.N, p=grid.p, series_tol=args.tol)
        state = rec.alias_coefficients(sset.values)
        if args.oracle:
            frame = DenseFrame.build(grid, len(state) - 1)
            ref = dense_project(frame, state)
            oracle_dev = float(np.max(np.abs(state.coefficients - ref)))
    elif mode == "filtered":
        M = grid.N - 1 if args.M is None else args.M
        if M < 0 or M >= grid.N:
            raise CliError(
                f"filtered mode needs 0 <= M < N; got M = {M}, N = {grid.N}"
            )
        rec = PartialReconstructor(N=grid.N, p=grid.p, series_tol=args.tol)
        state = rec.reconstruct_filtered(sset.values, M)
        if args.oracle:
            # dense route: project onto the sample span, then apply the same
            # in-band gains to the leading block
            frame = DenseFrame.build(grid, default_n_max(grid.p, grid.N))
            ref_alias = frame.T.conj().T @ frame.solve_gram(sset.values)
            gains = 1.0 + aliasing_excess(grid.p, grid.N, args.tol)
            ref = ref_alias[: M + 1] * gains[: M + 1]
            oracle_dev = float(np.max(np.abs(state.coefficients - ref)))
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown mode {mode!r}")

    if oracle_dev is not None:
        print(f"oracle max coefficient deviation: {oracle_dev:.3e}", file=sys.stderr)

    evaluation = None
    if args.eval_mesh is not None:
        zs = _parse_eval_mesh(args.eval_mesh)
        values = evaluate(state, zs)
        evaluation = {"points": zs, "values": values}
        if truth is not None:
            ref = evaluate(truth, zs)
            abs_err = np.abs(values - ref)
            denom = np.maximum(np.abs(ref), 1e-300)
            evaluation["reference"] = ref
            evaluation["abs_error"] = abs_err
            evaluation["rel_error"] = abs_err / denom

    if args.format == "csv":
        header = ["n", "re", "im"]
        rows = [
            [str(n), _fmt(c.real), _fmt(c.imag)]
            for n, c in enumerate(state.coefficients)
        ]
        blocks = [",".join(header) + "\n" + "\n".join(",".join(r) for r in rows)]
        if evaluation is not None:
            eh = ["re_z", "im_z", "re_value", "im_value"]
            if truth is not None:
                eh += ["re_true", "im_true", "abs_error", "rel_error"]
            erows = []
            for i, z in enumerate(evaluation["points"]):
                row = [
                    _fmt(z.real),
                    _fmt(z.imag),
                    _fmt(evaluation["values"][i].real),
                    _fmt(evaluation["values"][i].imag),
                ]
                if truth is not None:
                    row += [
                        _fmt(evaluation["reference"][i].real),
                        _fmt(evaluation["reference"][i].imag),
                        _fmt(evaluation["abs_error"][i]),
                        _fmt(evaluation["rel_error"][i]),
                    ]
                erows.append(row)
            blocks.append(",".join(eh) + "\n" + "\n".join(",".join(r) for r in erows))
        _write("\n\n".join(blocks) + "\n", args.out)
    else:
        payload = state.to_json()
        payload["mode"] = mode
        payload["grid"] = grid.to_json()
        if oracle_dev is not None:
            payload["oracle_deviation"] = oracle_dev
        if evaluation is not None:
            payload["evaluation"] = {
                "points": [[z.real, z.imag] for z in evaluation["points"]],
                "values": [[v.real, v.imag] for v in evaluation["values"]],
            }
            if truth is not None:
                payload["evaluation"]["reference"] = [
                    [v.real, v.imag] for v in evaluation["reference"]
                ]
                payload["evaluation"]["abs_error"] = [
                    float(x) for x in evaluation["abs_error"]
                ]
                payload["evaluation"]["rel_error"] = [
                    float(x) for x in evaluation["rel_error"]
                ]
        _emit_json(payload, args.out)
    return 0


def _cmd_error_sweep(args) -> int:
    psi = _load_state(args.state)
    Ns = _parse_int_list(args.N, "--N")
    ps = _parse_float_spec(args.p, "--p")
    rows = []
    for N in Ns:
        for p in ps:
            grid = _build_grid(N, p)
            eps = truncation_epsilon(psi, N - 1)
            nu0 = float(aliasing_excess(p, N, args.tol)[0])
            bound = error_bound(eps, p, N, nu0=nu0)
            bound_f = filtered_error_bound(eps, p, N, nu0=nu0)
            measured = None
            if args.oracle:
                n_max = max(default_n_max(p, N), psi.order)
                frame = DenseFrame.build(grid, n_max)
                measured = measured_error_sq(frame, psi)
            rows.append((N, p, eps, nu0, bound, bound_f, measured))
    if args.format == "csv":
        header = ["N", "p", "epsilon_N", "nu0", "bound", "bound_filtered"]
        if args.oracle:
            header.append("measured")
        out_rows = []
        for N, p, eps, nu0, bound, bound_f, measured in rows:
            row = [str(N), _fmt(p), _fmt(eps), _fmt(nu0), _fmt(bound), _fmt(bound_f)]
            if args.oracle:
                row.append(_fmt(measured))
            out_rows.append(row)
        _emit_csv(header, out_rows, args.out)
    else:
        payload = {
            "rows": [
                {
                    "N": N,
                    "p": p,
                    "epsilon_N": eps,
                    "nu0": nu0,
                    "bound": bound,
                    "bound_filtered": bound_f,
                    "measured": measured,
                }
                for N, p, eps, nu0, bound, bound_f, measured in rows
            ]
        }
        _emit_json(payload, args.out)
    return 0


def _cmd_droplet(args) -> int:
    Ms = _parse_int_list(args.M, "--M")
    if any(M < 0 for M in Ms):
        raise CliError("--M orders must be >= 0")
    ps = _parse_float_spec(args.p_range, "--p-range")
    if any(p < 0 for p in ps):
        raise CliError("droplet radii must be >= 0")
    curves = {M: [droplet(M, p) for p in ps] for M in Ms}
    if args.format == "csv":
        header = ["p"] + [f"P_{M}" for M in Ms]
        rows = [
            [_fmt(p)] + [_fmt(curves[M][i]) for M in Ms] for i, p in enumerate(ps)
        ]
        _emit_csv(header, rows, args.out)
    else:
        payload = {
            "M": Ms,
            "p": [float(p) for p in ps],
            "values": {str(M): [float(v) for v in curves[M]] for M in Ms},
        }
        _emit_json(payload, args.out)
    return 0


def _cmd_validate(args) -> int:
    grid = _build_grid(args.N, args.p)
    rng = np.random.default_rng(args.seed)
    checks = []

    data = SpectralData.build(grid, series_tol=args.tol)
    defect = data.weight_sum_defect()
    checks.append(("weight partition sum", defect <= 1e-10 * grid.N, defect))

    d = rfm_orthogonality_defect(grid.N, grid.N - 1)
    checks.append(("root-of-unity orthogonality", d <= 1e-12, d))

    overlap = build_overlap(grid, args.tol)
    d = overlap.series_dft_defect()
    checks.append(("eigenvalue series vs DFT (scale-relative)", d <= 1e-10, d))

    # the residual is taken on unit Fourier columns (entries 1/sqrt(N)), so
    # sqrt(N) times it reads an eigenvalue error d as d
    d = dense_eig_check(grid, args.tol) * math.sqrt(grid.N)
    thresh = 1e-9 * float(np.max(overlap.eigenvalues))
    checks.append(("dense circulant eigencheck", d <= thresh, d))

    a = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    a /= np.linalg.norm(a)
    psi = FockVector(a)
    samples = sample(psi, grid)
    rec = ExactReconstructor(N=grid.N, p=grid.p, M=grid.N - 1, series_tol=args.tol)
    got = rec.dft_coefficients(samples.values)
    d = float(np.max(np.abs(got.coefficients - a)))
    checks.append(("exact round trip on this grid", d <= 1e-9, d))

    part = PartialReconstructor(N=grid.N, p=grid.p, series_tol=args.tol)
    pts = grid.points()
    worst = 0.0
    ks = range(grid.N) if grid.N <= 6 else rng.integers(0, grid.N, 6)
    for k in ks:
        vals = part.lagrange_kernel(int(k), pts)
        expect = np.zeros(grid.N)
        expect[int(k)] = 1.0
        worst = max(worst, float(np.max(np.abs(vals - expect))))
    checks.append(("interpolation kernel delta property", worst <= 1e-9, worst))

    long_len = min(grid.N + 50, 400)
    a2 = rng.standard_normal(long_len) + 1j * rng.standard_normal(long_len)
    a2 /= np.linalg.norm(a2)
    report = assess(FockVector(a2), grid, series_tol=args.tol)
    ok = report.measured is None or report.measured <= report.bound + 1e-9
    checks.append(
        ("measured error within bound", ok,
         -1.0 if report.measured is None else report.measured)
    )

    failed = 0
    for name, ok, value in checks:
        line = f"{'PASS' if ok else 'FAIL'} {name}: {value:.6e}"
        print(line)
        if not ok:
            failed += 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed", file=sys.stderr)
        return 1
    return 0


# -- parser -----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, grid_required: bool) -> None:
    p.add_argument("--N", type=int, required=grid_required, help="grid size")
    p.add_argument("--p", type=float, required=grid_required,
                   help="mean particle number (circle radius squared)")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--tol", type=float, default=None,
                   help="series tolerance override (or env PHASE_FRAME_TOL)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phaseframe",
        description="Fock-Bargmann reconstruction from equispaced phase samples",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="weight table of a grid")
    _add_common(sp, grid_required=True)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("sample", help="evaluate a state on a grid")
    _add_common(sp, grid_required=True)
    sp.add_argument("--state", required=True, help="state JSON file")
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("reconstruct", help="recover coefficients from samples")
    _add_common(sp, grid_required=False)
    sp.add_argument("--mode", choices=("exact", "partial", "filtered"),
                    required=True)
    sp.add_argument("--M", type=int, default=None,
                    help="truncation order (exact/filtered; default N-1)")
    sp.add_argument("--samples", help="sample JSON file")
    sp.add_argument("--state", help="state JSON file (sampled if no --samples; "
                                    "used as evaluation reference)")
    sp.add_argument("--eval-mesh", dest="eval_mesh",
                    help="polar mesh r0:r1:nr,t0:t1:nt to evaluate on")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the dense oracle")
    sp.set_defaults(func=_cmd_reconstruct)

    sp = sub.add_parser("error-sweep", help="error budget over a grid family")
    sp.add_argument("--N", required=True, help="comma list of grid sizes")
    sp.add_argument("--p", required=True,
                    help="comma list or start:stop:count range")
    sp.add_argument("--state", required=True, help="state JSON file")
    sp.add_argument("--oracle", action="store_true",
                    help="add the dense measured error column")
    sp.add_argument("--out", help="output file (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--tol", type=float, default=None)
    sp.set_defaults(func=_cmd_error_sweep)

    sp = sub.add_parser("droplet", help="truncation projector curves P_M(p)")
    sp.add_argument("--M", required=True, help="comma list of orders")
    sp.add_argument("--p-range", dest="p_range", required=True,
                    help="start:stop:count radii range (or comma list)")
    sp.add_argument("--out", help="output file (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_droplet)

    sp = sub.add_parser("validate", help="grid self-check against the oracle")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=None)
    sp.set_defaults(func=_cmd_validate)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OracleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ORACLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
