"""Command-line interface.

Subcommands
-----------
spectrum     per-index weight table (lambda, lambda_hat, nu) of a grid
sample       evaluate a state on a phase grid
reconstruct  recover coefficients from samples (exact, partial or filtered)
error-sweep  error budget of one state over a grid family
droplet      truncation-projector expectation curves P_M(p)
validate     self-check of the analytic paths against the dense oracle

Exit codes: 0 success, 1 validation failure (a check that raises fails), 2
malformed input or an inconsistent mode/M combination, 3 an oracle size cap
of `reconstruct --oracle` or `error-sweep --oracle`.  All output is
deterministic; JSON is one sorted line and CSV numbers carry 17 digits.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys

import numpy as np

from . import __version__
from .errors import assess, droplet
from .exact import ExactReconstructor
from .fock import FockVector, PhaseGrid, PolarMesh, SampleSet, _pairs, evaluate, load_json
from .fock import sample
from .oracle import (
    DenseFrame,
    OracleSizeError,
    _sampled_rows,
    dense_eig_check,
    dense_pseudoinverse_fit,
)
from .partial import PartialReconstructor
from .spectral import SERIES_TOL, SpectralData, aliasing_excess, build_overlap

_EXIT_INPUT = 2
_EXIT_ORACLE = 3


def _cell(x) -> str:
    return str(x) if isinstance(x, numbers.Integral) else f"{float(x):.16e}"


def _emit(args, payload: dict, *tables) -> None:
    """Write a command's result in args.format to args.out (default stdout).

    JSON is `payload` on one sorted line (no indent, so json's C encoder).
    CSV is `tables`, (name, column) pair lists joined by one blank line;
    integers print as they are, floats with 17 digits so they round-trip.
    A NaN or infinite value in either is a ValueError, so no file is written.
    """
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    else:
        blocks = []
        for table in tables:
            names, columns = zip(*table)
            for name, column in table:
                if not np.all(np.isfinite(np.asarray(column, dtype=float))):
                    raise ValueError(f"CSV column {name!r} holds a NaN or infinite value")
            rows = (",".join(map(_cell, row)) for row in zip(*columns))
            blocks.append("\n".join([",".join(names), *rows]))
        text = "\n\n".join(blocks)
    if args.out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")


def _load(path: str, cls, what: str):
    try:
        return cls.from_json(load_json(path))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load {what} file {path!r}: {exc}") from exc


def _build_grid(N, p) -> PhaseGrid:
    if N is None or p is None:
        raise ValueError("this command needs both --N and --p")
    return PhaseGrid(N, p)


def _parse_int_list(spec: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in spec.split(",") if tok != ""]
    except ValueError as exc:
        raise ValueError(
            f"{flag} expects a comma-separated integer list: {exc}"
        ) from exc
    if not values:
        raise ValueError(f"{flag} must name at least one value")
    return values


def _parse_float_spec(spec: str, flag: str) -> list[float]:
    """Either a comma list '1,2.5,8' or a linspace 'start:stop:count', of
    finite values only (checked before any arithmetic on them)."""
    if ":" in spec:
        return [float(x) for x in np.linspace(*_parse_range(spec, flag))]
    try:
        values = [float(tok) for tok in spec.split(",") if tok != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} expects numbers: {exc}") from exc
    if not values:
        raise ValueError(f"{flag} must name at least one value")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{flag} values must be finite, got {spec!r}")
    return values


def _parse_range(spec: str, flag: str) -> tuple[float, float, int]:
    """start, stop, count of a linspace 'start:stop:count' with finite ends."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"{flag} range must look like start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"malformed {flag} range: {exc}") from exc
    if count < 1:
        raise ValueError(f"{flag} range count must be >= 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"{flag} values must be finite, got {spec!r}")
    return start, stop, count


def _parse_eval_mesh(spec: str):
    """Polar mesh 'r0:r1:nr,t0:t1:nt': a PolarMesh when the angles are a
    range, else the complex points r e^{i t}, r-major.  The radius part ends
    at the first comma, so the angle part may be a comma list."""
    parts = spec.split(",", 1)
    if len(parts) != 2:
        raise ValueError("--eval-mesh must look like r0:r1:nr,t0:t1:nt")
    radii = _parse_float_spec(parts[0], "--eval-mesh radius")
    ranged = ":" in parts[1]
    angles = (_parse_range if ranged else _parse_float_spec)(parts[1], "--eval-mesh angle")
    if any(r < 0 for r in radii):
        raise ValueError("--eval-mesh radii must be >= 0")
    if ranged:
        return PolarMesh(radii, *angles)
    return (np.asarray(radii)[:, None] * np.exp(1j * np.asarray(angles)[None, :])).ravel()


# -- subcommands ------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    grid = _build_grid(args.N, args.p)
    data = SpectralData.build(grid, grid.N - 1)
    payload = {
        "N": grid.N,
        "p": grid.p,
        "series_tol": SERIES_TOL,
        "j": list(range(grid.N)),
        "lambda": data.weights.tolist(),
        "lambda_hat": data.folded.tolist(),
        "nu": data.excess.tolist(),
    }
    table = [("j", range(grid.N)), ("lambda_j", data.weights),
             ("lambda_hat_j", data.folded), ("nu_j", data.excess)]
    _emit(args, payload, table)
    return 0


def _cmd_sample(args) -> int:
    grid = _build_grid(args.N, args.p)
    samples = sample(_load(args.state, FockVector, "state"), grid)
    values = samples.values
    table = [("k", range(grid.N)), ("re", values.real), ("im", values.imag)]
    _emit(args, samples.to_json(), table)
    return 0


def _reconstruct_inputs(args):
    if args.samples is None and args.state is None:
        raise ValueError("reconstruct needs --samples and/or --state")
    truth = None if args.state is None else _load(args.state, FockVector, "state")
    if args.samples is not None:
        sset = _load(args.samples, SampleSet, "sample")
        if args.N is not None and args.N != sset.grid.N:
            raise ValueError(
                f"--N {args.N} conflicts with the sample file grid N = {sset.grid.N}"
            )
        if args.p is not None and float(args.p) != sset.grid.p:
            raise ValueError(
                f"--p {args.p} conflicts with the sample file grid p = {sset.grid.p}"
            )
        return sset, truth
    grid = _build_grid(args.N, args.p)
    return sample(truth, grid), truth


def _referee(mode: str, sset: SampleSet, state: FockVector) -> np.ndarray:
    """The dense oracle's coefficients of the samples for one reconstruct
    mode, over the modes 0..M of the recovered state."""
    grid, M = sset.grid, len(state) - 1
    if mode == "exact":  # least squares T+ Psi
        frame = DenseFrame.build(grid, grid.N - 1)
        return dense_pseudoinverse_fit(frame, M, sset.values)
    # the aliases T* B^-1 Psi of the projection onto the sample span
    frame = DenseFrame.build(grid, M)
    aliases = frame.T.conj().T @ frame.solve_gram(sset.values)
    if mode == "partial":
        return aliases
    # filtered: the aliases times the in-band gains
    with np.errstate(over="ignore", invalid="ignore"):
        ref = aliases * (1.0 + aliasing_excess(grid.p, grid.N)[: M + 1])
    if not np.all(np.isfinite(ref)):
        raise OracleSizeError(
            f"the dense filtered reference (aliases times the in-band gains "
            f"1 + nu_n) leaves double range on the grid N = {grid.N}, p = {grid.p:g}"
        )
    return ref


def _cmd_reconstruct(args) -> int:
    sset, truth = _reconstruct_inputs(args)
    grid, mode = sset.grid, args.mode
    if mode == "partial":
        if args.M is not None:
            raise ValueError(
                "partial mode materializes every alias; --M only applies to "
                "exact or filtered mode"
            )
        rec = PartialReconstructor(N=grid.N, p=grid.p)
        state = rec.alias_coefficients(sset.values)
    else:
        # the filtered pipeline is the oversampled DFT recovery of modes 0..M
        rec = ExactReconstructor(N=grid.N, p=grid.p, M=args.M)
        state = rec.dft_coefficients(sset.values)
    payload = {**state.to_json(), "mode": mode, "grid": grid.to_json()}
    if args.oracle:
        ref = _referee(mode, sset, state)
        payload["oracle_deviation"] = float(np.max(np.abs(state.coefficients - ref)))
        print(
            f"oracle max coefficient deviation: {payload['oracle_deviation']:.3e}",
            file=sys.stderr,
        )

    coeffs = state.coefficients
    tables = [[("n", range(len(coeffs))), ("re", coeffs.real), ("im", coeffs.imag)]]
    if args.eval_mesh is not None:
        mesh = _parse_eval_mesh(args.eval_mesh)
        zs = mesh.points().ravel() if isinstance(mesh, PolarMesh) else mesh
        values = evaluate(state, mesh).ravel()
        table = [("re_z", zs.real), ("im_z", zs.imag),
                 ("re_value", values.real), ("im_value", values.imag)]
        evaluation = {"points": _pairs(zs), "values": _pairs(values)}
        if truth is not None:
            ref = evaluate(truth, mesh).ravel()
            abs_error = np.abs(values - ref)
            rel_error = abs_error / np.maximum(np.abs(ref), 1e-300)
            table += [("re_true", ref.real), ("im_true", ref.imag),
                      ("abs_error", abs_error), ("rel_error", rel_error)]
            evaluation.update(reference=_pairs(ref), abs_error=abs_error.tolist(),
                              rel_error=rel_error.tolist())
        tables.append(table)
        payload["evaluation"] = evaluation
    _emit(args, payload, *tables)
    return 0


_SWEEP_FIELDS = ("epsilon_N", "nu0", "bound", "bound_filtered", "measured")


def _cmd_error_sweep(args) -> int:
    psi = _load(args.state, FockVector, "state")
    Ns = _parse_int_list(args.N, "--N")
    ps = _parse_float_spec(args.p, "--p")
    rows = []
    for N in Ns:
        for p in ps:
            grid = _build_grid(N, p)
            report = assess(psi, grid, measure=args.oracle).to_json()
            rows.append({"N": N, "p": p, **{k: report[k] for k in _SWEEP_FIELDS}})
    names = ["N", "p", *_SWEEP_FIELDS[: 5 if args.oracle else 4]]
    _emit(args, {"rows": rows}, [(key, [row[key] for row in rows]) for key in names])
    return 0


def _cmd_droplet(args) -> int:
    Ms = _parse_int_list(args.M, "--M")
    ps = _parse_float_spec(args.p_range, "--p-range")
    curves = {M: droplet(M, ps).tolist() for M in Ms}
    payload = {"M": Ms, "p": ps, "values": {str(M): curves[M] for M in Ms}}
    _emit(args, payload, [("p", ps), *((f"P_{M}", curves[M]) for M in Ms)])
    return 0


def _unit_vector(rng, length: int) -> np.ndarray:
    a = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return a / np.linalg.norm(a)


def _cmd_validate(args) -> int:
    grid = _build_grid(args.N, args.p)
    N, pts = grid.N, grid.points()
    # every random input is drawn before any check runs, so a check that
    # raises changes no other check's input
    rng = np.random.default_rng(args.seed)
    a = _unit_vector(rng, N)
    ks = range(N) if N <= 6 else rng.integers(0, N, 6)
    a2 = _unit_vector(rng, min(N + 50, 400))
    samples = sample(FockVector(a), grid)
    rec = ExactReconstructor(N=N, p=grid.p)
    part = PartialReconstructor(N=N, p=grid.p)
    # the kernels are read where dense_eig_check reads B: at every grid point
    # up to N = 128, and at 128 of them past it
    rows = _sampled_rows(N)
    plan = SpectralData.build(grid, N - 1)

    def delta_defect(k):  # at the sampled points and at z_k itself
        r = np.union1d(rows, k)
        return np.abs(part.lagrange_kernel(int(k), pts[r]) - (r == k)).max()

    def measured():  # -1 where assess skips the dense measurement
        r = assess(FockVector(a2), grid)
        return (-1.0, 0.0) if r.measured is None else (r.measured, r.bound + 1e-9)

    # each check gives (value, bound) and passes when value <= bound
    checks = [
        ("weight partition sum",
         lambda: (plan.weight_sum_defect(), 1e-10 * N)),
        ("exact kernel route reproduces the samples",
         lambda: (np.abs(rec.reconstruct(samples, pts[rows]) - samples.values[rows]).max(),
                  1e-9 * np.abs(samples.values).max())),
        ("eigenvalue series vs DFT (scale-relative)",
         lambda: (build_overlap(grid).series_dft_defect(), 1e-10)),
        # the residual is taken on unit Fourier columns (entries 1/sqrt(N)),
        # so sqrt(N) times it reads an eigenvalue error d as d
        ("dense circulant eigencheck", lambda: (
            dense_eig_check(grid) * math.sqrt(N),
            1e-9 * np.max(plan.folded))),
        ("exact round trip on this grid",
         lambda: (np.abs(rec.dft_coefficients(samples.values).coefficients - a).max(), 1e-9)),
        ("interpolation kernel delta property",
         lambda: (max(delta_defect(k) for k in ks), 1e-9)),
        ("measured error within bound", measured),
    ]
    failed = 0
    for name, check in checks:
        try:
            value, bound = check()
            ok, text = value <= bound, f"{value:.6e}"
        except (ValueError, ArithmeticError) as exc:  # a check that raises fails
            ok, text = False, str(exc)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {text}")
        failed += not ok
    if failed:
        print(f"{failed} of {len(checks)} checks failed", file=sys.stderr)
        return 1
    return 0


# -- parser -----------------------------------------------------------------


def _add_grid(p: argparse.ArgumentParser, *, required: bool) -> None:
    p.add_argument("--N", type=int, required=required, help="grid size")
    p.add_argument("--p", type=float, required=required,
                   help="mean particle number (circle radius squared)")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phaseframe",
        description="Fock-Bargmann reconstruction from equispaced phase samples",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="weight table of a grid")
    _add_grid(sp, required=True)
    _add_output(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("sample", help="evaluate a state on a grid")
    _add_grid(sp, required=True)
    _add_output(sp)
    sp.add_argument("--state", required=True, help="state JSON file")
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("reconstruct", help="recover coefficients from samples")
    _add_grid(sp, required=False)
    _add_output(sp)
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
    _add_output(sp)
    sp.set_defaults(func=_cmd_error_sweep)

    sp = sub.add_parser("droplet", help="truncation projector curves P_M(p)")
    sp.add_argument("--M", required=True, help="comma list of orders")
    sp.add_argument("--p-range", dest="p_range", required=True,
                    help="start:stop:count radii range (or comma list)")
    _add_output(sp)
    sp.set_defaults(func=_cmd_droplet)

    sp = sub.add_parser("validate", help="grid self-check against the oracle")
    _add_grid(sp, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_validate)

    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # malformed input, or an oracle size cap
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ORACLE if isinstance(exc, OracleSizeError) else _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
