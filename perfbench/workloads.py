"""Seeded workloads of the phaseframe benchmark.

Each workload turns a seed into inputs, runs one op at a time against the
library and checks every op's outputs.  An op is timed from the call into the
library to its return; input generation and checking stay outside the timed
region and call no library function, so a traced run counts only the calls
the op itself makes.

Library functions are always looked up through their module at call time
(``pf.sample``, ``self.exact.transform``) so that the tracer's wrappers are
seen once installed.

Outcome of an op:
  * it returns and its check passes            -> ok
  * it raises, or the CLI exits non-zero       -> failed, explicitly
  * it returns a wrong or non-finite value     -> failed, silently wrong
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

EPS = np.finfo(float).eps
# relative agreement demanded of two routes to the same off-grid value
OFFGRID_RTOL = 1e-9
# safety factor on the per-mode rounding bound eps * N * g_m of the DFT recovery
NOISE_SAFETY = 128.0


class ExplicitFailure(Exception):
    """The op reported its own failure (a non-zero CLI exit code)."""


class WrongOutput(Exception):
    """The op returned a value that fails its correctness check."""


def poisson_window(p: float) -> tuple[int, int]:
    """Modes ceil(p - 8 sqrt(p)) .. round(p + 8 sqrt(p)) carry a state on the circle |z|^2 = p."""
    half = 8.0 * math.sqrt(p)
    return max(0, math.ceil(p - half)), round(p + half)


def random_state(rng: np.random.Generator, lo: int, hi: int, rows: int | None = None) -> np.ndarray:
    """Unit-norm complex coefficients, zero below mode lo, over modes 0..hi."""
    shape = (hi + 1,) if rows is None else (rows, hi + 1)
    a = np.zeros(shape, dtype=complex)
    width = hi + 1 - lo
    block = rng.standard_normal(shape[:-1] + (width, 2))
    a[..., lo:] = block[..., 0] + 1j * block[..., 1]
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def noise_tolerance(N: int, p: float, M: int) -> np.ndarray:
    """Per-mode tolerance NOISE_SAFETY * eps * N * g_m for modes 0..M.

    g_m = 1/sqrt(N lam_m), lam_m = N e^{-p} p^m / m!, is the noise gain of
    mode m in the DFT recovery; eps * N bounds the rounding of a length-N sum.
    """
    m = np.arange(M + 1, dtype=float)
    lgam = np.array([math.lgamma(x + 1.0) for x in m])
    log_lam = math.log(N) - p + m * math.log(p) - lgam
    gain = np.exp(-0.5 * (math.log(N) + log_lam))
    return NOISE_SAFETY * EPS * N * gain


def require_finite(name: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise WrongOutput(f"{name} has non-finite entries")


def require_close(name: str, got, want, tol) -> None:
    err = np.abs(np.asarray(got) - np.asarray(want))
    if not np.all(err <= tol):
        raise WrongOutput(f"{name} deviates by up to {float(np.max(err)):.3e}")


def relative_gap(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), np.finfo(float).tiny)
    return np.abs(x - y) / scale


class Recover:
    """One grid (N=1024, p=512); each op samples a stack of 4 random window
    states and recovers it by the exact, partial and filtered routes."""

    name = "recover"
    unit = "vectors"
    per_op = 4
    N, p, stack = 1024, 512.0, 4

    def __init__(self, pf, seed: int, workdir: str):
        self.pf = pf
        self.seed = seed
        self.lo, self.M = poisson_window(self.p)
        self.tol = noise_tolerance(self.N, self.p, self.M)
        self.grid = pf.PhaseGrid(self.N, self.p)
        self.exact = pf.ExactReconstructor(N=self.N, p=self.p, M=self.M)
        self.partial = pf.PartialReconstructor(N=self.N, p=self.p)
        self.next_op = 0

    def make_input(self, index: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, index])
        return random_state(rng, self.lo, self.M, rows=self.stack)

    def pass_inputs(self) -> list:
        """One op per pass; every op gets a fresh stack."""
        index, self.next_op = self.next_op, self.next_op + 1
        return [self.make_input(index)]

    def run(self, stack: np.ndarray) -> dict:
        pf = self.pf
        samples = np.vstack([pf.sample(pf.FockVector(a), self.grid).values for a in stack])
        return {
            "exact": self.exact.transform(samples),
            "partial": self.partial.transform(samples),
            "filtered": np.vstack(
                [self.partial.reconstruct_filtered(row, self.M).coefficients for row in samples]
            ),
        }

    def check(self, stack: np.ndarray, out: dict) -> None:
        for key, value in out.items():
            require_finite(key, value)
        lo, M = self.lo, self.M
        exact = out["exact"]
        require_close("exact window coefficients", exact[:, lo:], stack[:, lo:], self.tol[lo:])
        require_close("partial vs exact on the window", out["partial"][:, lo : M + 1],
                      exact[:, lo:], self.tol[lo:])
        require_close("filtered vs exact on the window", out["filtered"][:, lo:],
                      exact[:, lo:], self.tol[lo:])


class Sweep:
    """135 grids, N = 1..256 and p = r N for r = 2^-2..2^12; each op is the
    error budget, droplet value and folded weights of one grid."""

    name = "sweep"
    unit = "grids"
    per_op = 1

    def __init__(self, pf, seed: int, workdir: str):
        self.pf = pf
        rng = np.random.default_rng(seed)
        self.cases = []
        for e in range(9):
            N = 2**e
            for k in range(-2, 13):
                psi = pf.FockVector(random_state(rng, 0, 2 * N - 1))
                self.cases.append((pf.PhaseGrid(N, 2.0**k * N), psi))

    def pass_inputs(self) -> list:
        return self.cases

    def run(self, case) -> dict:
        pf = self.pf
        grid, psi = case
        report = pf.assess(psi, grid, measure=False)
        return {
            "bound": report.bound,
            "bound_filtered": report.bound_filtered,
            "droplet": pf.droplet(grid.N - 1, grid.p),
            "folded": pf.folded_weight(grid.p, grid.N),
        }

    def check(self, case, out: dict) -> None:
        grid, _ = case
        for key in ("bound", "bound_filtered"):
            if not (math.isfinite(out[key]) and out[key] >= 0.0):
                raise WrongOutput(f"{key} = {out[key]!r} is not finite and >= 0")
        if not 0.0 <= out["droplet"] <= 1.0:
            raise WrongOutput(f"droplet = {out['droplet']!r} outside [0, 1]")
        require_finite("folded weights", out["folded"])
        defect = abs(float(np.sum(out["folded"])) - grid.N)
        if not defect <= 1e-10 * grid.N:
            raise WrongOutput(f"folded weights sum to N {defect:+.3e} off")


class Offgrid:
    """One state (N=256, p=128, M=219) fitted by both reconstructors; each op
    evaluates 50 points of a polar mesh with radius 0..2 sqrt(p)."""

    name = "offgrid"
    unit = "points"
    per_op = 50
    N, p = 256, 128.0
    radii, angles = 40, 25

    def __init__(self, pf, seed: int, workdir: str):
        self.pf = pf
        rng = np.random.default_rng(seed)
        lo, M = poisson_window(self.p)
        self.truth = pf.FockVector(random_state(rng, lo, M))
        grid = pf.PhaseGrid(self.N, self.p)
        self.samples = pf.sample(self.truth, grid)
        self.exact = pf.ExactReconstructor(N=self.N, p=self.p, M=M).fit(self.samples)
        self.partial = pf.PartialReconstructor(N=self.N, p=self.p).fit(self.samples)
        r = np.linspace(0.0, 2.0 * math.sqrt(self.p), self.radii)
        theta = 2.0 * np.pi * (np.arange(self.angles) + rng.uniform()) / self.angles
        mesh = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
        # strided chunks each span every radius, so all ops cost about the
        # same and the median latency does not sit between two cost classes
        count = mesh.size // self.per_op
        kernels = rng.integers(0, self.N, count)
        self.chunks = [(mesh[i::count], int(k)) for i, k in enumerate(kernels)]

    def pass_inputs(self) -> list:
        return self.chunks

    def run(self, chunk) -> dict:
        pf = self.pf
        z, k = chunk
        return {
            "truth": pf.evaluate(self.truth, z),
            "exact_predict": self.exact.predict(z),
            "exact_reconstruct": self.exact.reconstruct(self.samples, z),
            "sinc_kernel": self.exact.sinc_kernel(k, z),
            "partial_predict": self.partial.predict(z),
            "partial_reconstruct": self.partial.reconstruct(self.samples, z),
            "lagrange_kernel": self.partial.lagrange_kernel(k, z),
        }

    def check(self, chunk, out: dict) -> None:
        z, _ = chunk
        for key, value in out.items():
            require_finite(key, value)
        gap = relative_gap(out["partial_predict"], out["partial_reconstruct"])
        if not np.all(gap <= OFFGRID_RTOL):
            raise WrongOutput(f"partial kernel and coefficient routes differ by {gap.max():.3e}")
        r = np.abs(z) / math.sqrt(self.p)
        ring = (r >= 0.95) & (r <= 1.05)
        for key in ("exact_predict", "exact_reconstruct", "partial_predict", "partial_reconstruct"):
            gap = relative_gap(out[key][ring], out["truth"][ring])
            if not np.all(gap <= OFFGRID_RTOL):
                raise WrongOutput(f"{key} misses evaluate(truth) by {gap.max():.3e} on the circle")


def _complex_pairs(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


class Cli:
    """Eight CLI commands per pass, run in-process through phaseframe.cli.main."""

    name = "cli"
    unit = "commands"
    per_op = 1
    N, p = 1024, 512.0

    def __init__(self, pf, seed: int, workdir: str):
        self.pf = pf
        rng = np.random.default_rng(seed)
        self.lo, self.M = poisson_window(self.p)
        self.truth = random_state(rng, self.lo, self.M)
        self.tol = noise_tolerance(self.N, self.p, self.M)
        small = random_state(rng, 0, 23)
        self.state_path = os.path.join(workdir, "state.json")
        psi_path = os.path.join(workdir, "psi.json")
        for path, coeffs in ((self.state_path, self.truth), (psi_path, small)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(pf.FockVector(coeffs).to_json(), fh)
        radius = math.sqrt(self.p)
        ring = f"{0.95 * radius!r}:{1.05 * radius!r}:3,0:6.2:16"
        grid = ["--N", str(self.N), "--p", repr(self.p)]

        def out(tag):
            return ["--format", "json", "--out", os.path.join(workdir, f"{tag}.json")]

        self.commands = [
            ["sample", *grid, "--state", self.state_path, *out("sample")],
            ["reconstruct", "--mode", "exact", "--M", str(self.M), *grid,
             "--state", self.state_path, "--eval-mesh", ring, *out("exact")],
            ["reconstruct", "--mode", "partial", *grid,
             "--state", self.state_path, "--eval-mesh", ring, *out("partial")],
            ["reconstruct", "--mode", "filtered", "--M", str(self.M), *grid,
             "--state", self.state_path, "--eval-mesh", ring, *out("filtered")],
            ["spectrum", *grid, *out("spectrum")],
            ["error-sweep", "--N", "4,8,16", "--p", "1:20:20", "--state", psi_path,
             "--oracle", *out("error-sweep")],
            ["droplet", "--M", "10,100,1000", "--p-range", "0:1200:241", *out("droplet")],
            ["validate", "--N", "64", "--p", "40"],
        ]

    def pass_inputs(self) -> list:
        return self.commands

    def run(self, argv: list) -> dict:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.pf.cli.main(list(argv))
        return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}

    def _payload(self, argv: list) -> dict:
        """Parse and remove the command's output file, so that the next pass
        cannot pass its check on a stale file."""
        path = argv[argv.index("--out") + 1]
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError) as exc:
            raise WrongOutput(f"{argv[0]} output does not parse: {exc}") from exc
        finally:
            if os.path.exists(path):
                os.remove(path)

    def check(self, argv: list, out: dict) -> None:
        if out["code"] != 0:
            last = (out["stderr"].strip().splitlines() or ["no message"])[-1]
            raise ExplicitFailure(f"{argv[0]} exited {out['code']}: {last}")
        command = argv[0]
        if command == "validate":
            lines = out["stdout"].splitlines()
            if len(lines) != 7 or not all(line.startswith("PASS ") for line in lines):
                raise WrongOutput("validate exited 0 without seven PASS lines")
            return
        data = self._payload(argv)
        if command == "sample":
            values = _complex_pairs(data["values"])
            if values.size != self.N:
                raise WrongOutput(f"sample returned {values.size} values")
            require_finite("samples", values)
        elif command == "reconstruct":
            coeffs = _complex_pairs(data["coefficients"])
            require_finite("coefficients", coeffs)
            require_finite("evaluation", np.asarray(data["evaluation"]["values"], dtype=float))
            if "--M" in argv and coeffs.size != self.M + 1:
                raise WrongOutput(f"reconstruct returned {coeffs.size} coefficients")
            if argv[argv.index("--mode") + 1] == "exact":
                require_close("exact window coefficients", coeffs[self.lo :],
                              self.truth[self.lo :], self.tol[self.lo :])
        elif command == "spectrum":
            for key in ("lambda", "lambda_hat", "nu"):
                if len(data[key]) != self.N:
                    raise WrongOutput(f"spectrum {key} has {len(data[key])} entries")
                require_finite(key, np.asarray(data[key], dtype=float))
        elif command == "error-sweep":
            rows = data["rows"]
            if len(rows) != 60:
                raise WrongOutput(f"error-sweep returned {len(rows)} rows")
            for key in ("epsilon_N", "nu0", "bound", "bound_filtered", "measured"):
                require_finite(key, np.array([row[key] for row in rows], dtype=float))
        elif command == "droplet":
            values = np.array([data["values"][m] for m in ("10", "100", "1000")], dtype=float)
            if values.shape != (3, 241) or not np.all((values >= 0.0) & (values <= 1.0)):
                raise WrongOutput("droplet values missing or outside [0, 1]")


WORKLOADS = {cls.name: cls for cls in (Recover, Sweep, Offgrid, Cli)}
