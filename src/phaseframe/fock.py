"""Number-basis states, coherent amplitudes and phase-circle sampling.

A state is held as a finite coefficient vector a_0..a_M over the orthonormal
number basis.  Its Fock-Bargmann wave function is

    Psi(z) = sum_n a_n * conj(U_n(z)),     U_n(z) = e^{-|z|^2/2} z^n / sqrt(n!),

and sampling happens on the circle z_k = sqrt(p) * e^{2*pi*i*k/N}.  All
factorial-sized quantities are handled through logarithms so that large n and
large p stay inside double range.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._validation import (
    as_complex_vector,
    as_finite_points,
    check_grid_size,
    check_mean_number,
    check_order,
)

__all__ = [
    "CoherentPoint",
    "TailProfile",
    "FockVector",
    "PhaseGrid",
    "SampleSet",
    "coherent_amplitude",
    "log_amplitude_parts",
    "cs_overlap",
    "evaluate",
    "sample",
]


@dataclass(frozen=True)
class CoherentPoint:
    """A point z of the complex plane labelling a coherent state."""

    z: complex

    def __post_init__(self):
        z = complex(self.z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"coherent point must be finite, got {z}")
        object.__setattr__(self, "z", z)

    @property
    def p(self) -> float:
        """Mean particle number |z|^2 of the state."""
        return abs(self.z) ** 2

    @property
    def theta(self) -> float:
        """Phase of z in (-pi, pi]."""
        t = cmath.phase(self.z)
        if t == -math.pi:
            t = math.pi
        return t


def _as_z(z) -> complex:
    if isinstance(z, CoherentPoint):
        return z.z
    return complex(z)


@dataclass(frozen=True)
class TailProfile:
    """Declared power-law bound |a_n| <= C / n^alpha beyond the stored block.

    alpha > 1/2 is required so the tail has finite squared mass.
    """

    C: float
    alpha: float

    def __post_init__(self):
        C = float(self.C)
        alpha = float(self.alpha)
        if not (math.isfinite(C) and C >= 0.0):
            raise ValueError(f"tail amplitude C must be finite and >= 0, got {C}")
        if not (math.isfinite(alpha) and alpha > 0.5):
            raise ValueError(f"tail exponent alpha must exceed 1/2, got {alpha}")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "alpha", alpha)

    def mass_beyond(self, M: int) -> float:
        """Upper estimate of sum_{n > M} C^2 n^{-2 alpha} (integral bound)."""
        M = check_order(M)
        if self.C == 0.0:
            return 0.0
        if M == 0:
            # the integral bound needs a positive lower limit; n >= 1 terms
            # are dominated by C^2 * (1 + integral_1^inf x^{-2a} dx)
            return self.C**2 * (1.0 + 1.0 / (2.0 * self.alpha - 1.0))
        return self.C**2 * M ** (1.0 - 2.0 * self.alpha) / (2.0 * self.alpha - 1.0)


@dataclass
class FockVector:
    """Finite vector of number-basis coefficients, optionally with a declared
    power-law tail profile for the unstored part."""

    coefficients: np.ndarray
    tail: TailProfile | None = None

    def __post_init__(self):
        self.coefficients = as_complex_vector(self.coefficients, "coefficients")
        if self.tail is not None and not isinstance(self.tail, TailProfile):
            self.tail = TailProfile(*self.tail)

    def __len__(self) -> int:
        return len(self.coefficients)

    @property
    def order(self) -> int:
        """Largest stored index M (length - 1)."""
        return len(self.coefficients) - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def normalized(self) -> "FockVector":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.coefficients / nrm, self.tail)

    def padded(self, length: int) -> "FockVector":
        """Zero-extend to at least `length` coefficients."""
        if length <= len(self):
            return FockVector(self.coefficients.copy(), self.tail)
        out = np.zeros(length, dtype=complex)
        out[: len(self)] = self.coefficients
        return FockVector(out, self.tail)

    @staticmethod
    def basis_state(n: int, length: int | None = None) -> "FockVector":
        n = check_order(n, "n")
        length = n + 1 if length is None else int(length)
        if length < n + 1:
            raise ValueError("length must cover the excited index")
        out = np.zeros(length, dtype=complex)
        out[n] = 1.0
        return FockVector(out)

    @staticmethod
    def from_coherent(zeta, length: int) -> "FockVector":
        """Truncated coherent-state coefficients a_n = e^{-|zeta|^2/2} zeta^n/sqrt(n!)."""
        zeta = _as_z(zeta)
        if length < 1:
            raise ValueError("length must be >= 1")
        n = np.arange(length)
        logmag, phase = log_amplitude_parts(n, zeta)
        return FockVector(np.exp(logmag) * np.exp(1j * phase))

    def to_json(self) -> dict:
        tail = None
        if self.tail is not None:
            tail = {"C": self.tail.C, "alpha": self.tail.alpha}
        return {"coefficients": _pairs(self.coefficients), "tail": tail}

    @staticmethod
    def from_json(data: dict) -> "FockVector":
        if not isinstance(data, dict) or "coefficients" not in data:
            raise ValueError("state JSON must contain a 'coefficients' field")
        pairs = data["coefficients"]
        try:
            coeff = np.array([complex(re, im) for re, im in pairs])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed coefficient list: {exc}") from exc
        tail = data.get("tail")
        profile = None
        if tail is not None:
            try:
                profile = TailProfile(tail["C"], tail["alpha"])
            except (TypeError, KeyError) as exc:
                raise ValueError(f"malformed tail profile: {exc}") from exc
        return FockVector(coeff, profile)


@dataclass(frozen=True)
class PhaseGrid:
    """N equispaced points z_k = sqrt(p) e^{2 pi i k / N} on the circle |z|^2 = p."""

    N: int
    p: float

    def __post_init__(self):
        object.__setattr__(self, "N", check_grid_size(self.N))
        object.__setattr__(self, "p", check_mean_number(self.p))

    def points(self) -> np.ndarray:
        k = np.arange(self.N)
        return math.sqrt(self.p) * np.exp(2j * np.pi * k / self.N)

    def point(self, k: int) -> complex:
        k = int(k) % self.N
        return math.sqrt(self.p) * cmath.exp(2j * math.pi * k / self.N)

    def to_json(self) -> dict:
        return {"N": self.N, "p": self.p}

    @staticmethod
    def from_json(data: dict) -> "PhaseGrid":
        if not isinstance(data, dict) or "N" not in data or "p" not in data:
            raise ValueError("grid JSON must contain 'N' and 'p'")
        return PhaseGrid(int(data["N"]), float(data["p"]))


@dataclass
class SampleSet:
    """Wave-function values Psi(z_k) on a phase grid."""

    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.grid, PhaseGrid):
            raise ValueError("grid must be a PhaseGrid")
        self.values = as_complex_vector(self.values, "values")
        if len(self.values) != self.grid.N:
            raise ValueError(
                f"expected {self.grid.N} samples, got {len(self.values)}"
            )

    def __len__(self) -> int:
        return len(self.values)

    def to_json(self) -> dict:
        return {"grid": self.grid.to_json(), "values": _pairs(self.values)}

    @staticmethod
    def from_json(data: dict) -> "SampleSet":
        if not isinstance(data, dict) or "grid" not in data or "values" not in data:
            raise ValueError("sample JSON must contain 'grid' and 'values'")
        grid = PhaseGrid.from_json(data["grid"])
        try:
            values = np.array([complex(re, im) for re, im in data["values"]])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed sample values: {exc}") from exc
        return SampleSet(grid, values)


def _pairs(values) -> list:
    """Complex values as JSON [re, im] pairs of builtin floats, bit for bit."""
    return np.column_stack([values.real, values.imag]).tolist()


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def log_amplitude_parts(n, z):
    """Log-magnitude and phase of U_n(z) = e^{-|z|^2/2} z^n / sqrt(n!).

    Returns (logmag, phase) as float arrays shaped like n.  Works for any
    n >= 0 and any finite z without forming factorials or powers directly.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("mode index n must be >= 0")
    nf = n.astype(float)
    z = _as_z(z)
    az = abs(z)
    if az == 0.0:
        logmag = np.where(n == 0, 0.0, -np.inf)
        return logmag, np.zeros_like(nf)
    logmag = -0.5 * az * az + nf * math.log(az) - 0.5 * gammaln(nf + 1.0)
    phase = nf * cmath.phase(z)
    return logmag, phase


def _log_poisson(m, p: float, offset: float = 0.0):
    """offset + log(e^{-p} p^m / m!): the log Poisson pmf, shifted."""
    return offset - p + m * math.log(p) - gammaln(m + 1.0)


def coherent_amplitude(n, z) -> complex:
    """Overlap <n|z> = e^{-|z|^2/2} z^n / sqrt(n!); |result| <= 1 always."""
    logmag, phase = log_amplitude_parts(n, z)
    out = np.exp(logmag) * np.exp(1j * phase)
    if np.ndim(n) == 0:
        return complex(out)
    return out


def cs_overlap(z1, z2) -> complex:
    """Coherent-state overlap <z1|z2> = e^{-|z1|^2/2 - |z2|^2/2 + conj(z1) z2}.

    The exponent is evaluated as -|z1 - z2|^2/2 + i Im(conj(z1) z2): its real
    part is exactly non-positive, so |<z1|z2>| <= 1 holds in floating point
    and no overflow is possible, and swapping the arguments negates the
    imaginary part exactly.
    """
    z1 = _as_z(z1)
    z2 = _as_z(z2)
    d = z1 - z2
    re = -0.5 * (d.real * d.real + d.imag * d.imag)
    im = z1.real * z2.imag - z1.imag * z2.real
    return cmath.exp(complex(re, im))


def evaluate(psi: FockVector, z):
    """Wave function Psi(z) = sum_n a_n conj(U_n(z)) of a stored state.

    z may be a scalar or an array; the return matches its shape.
    """
    if not isinstance(psi, FockVector):
        psi = FockVector(psi)
    log_c = -0.5 * gammaln(np.arange(len(psi)) + 1.0)
    return series_at(z, log_c, psi.coefficients)


# exp(x) rounds to exactly 0 below this: it is under half the smallest
# subnormal by a factor of e/2
_LOG_TINY = math.log(np.finfo(float).smallest_subnormal) - 1.0
# elements of one (points x modes) block of the off-grid series
_BLOCK = 1 << 14


def series_at(z, log_c, weights, scale=1.0, log_offset=0.0):
    """exp(log_offset - |z|^2/2) sum_n exp(log_c_n) w0^n weights_n with
    w0 = scale * conj(z), for a scalar or an array z (the return matches).

    Every off-grid route is this series.  It runs in log space on blocks of
    points x modes of at most _BLOCK elements.  Each row is shifted by its
    largest log term and the shift is folded back by scale_by_exp, so no |z|
    overflows.  Trailing zero weights, and trailing columns whose every
    shifted term lies below _LOG_TINY (exp gives exactly 0), are dropped;
    neither changes a value.  O(points x live modes) work.  A NaN or
    infinite z is a ValueError.
    """
    zs = as_finite_points(z)
    w0 = scale * zs.conjugate().ravel()
    log_pref = log_offset - 0.5 * np.abs(zs.ravel()) ** 2
    nonzero = np.flatnonzero(weights)
    K = nonzero[-1] + 1 if nonzero.size else 0
    out = np.zeros(w0.shape, dtype=complex)
    if K:
        n = np.arange(K)
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(w0))
        theta = np.angle(w0)
        rows = max(1, _BLOCK // K)
        for lo in range(0, w0.size, rows):
            block = slice(lo, lo + rows)
            with np.errstate(invalid="ignore"):
                logmag = np.multiply.outer(log_abs[block], n)
            logmag[:, 0] = 0.0  # w0^0 = 1, also at w0 = 0
            logmag += log_c[:K]
            shift = logmag.max(axis=1)
            logmag -= shift[:, None]
            # a NaN keeps every column, so it reaches the output
            live = np.flatnonzero(~(logmag.max(axis=0) < _LOG_TINY))
            k = live[-1] + 1 if live.size else K
            terms = np.empty((len(shift), k), dtype=complex)
            terms.real = logmag[:, :k]
            np.multiply.outer(theta[block], n[:k], out=terms.imag)
            np.exp(terms, out=terms)
            out[block] = scale_by_exp(terms @ weights[:k], log_pref[block] + shift)
    if zs.ndim == 0:
        return complex(out[0])
    return out.reshape(zs.shape)


def sample(psi: FockVector, grid: PhaseGrid) -> SampleSet:
    """Evaluate Psi on all grid points at once.

    On the circle the basis magnitude is common to every point and only the
    root-of-unity phase e^{-2 pi i k n / N} varies, which depends on n only
    through n mod N.  The weighted coefficients are therefore folded onto
    their residue classes and one length-N FFT gives every sample:
    O(len + N log N) work, accurate to O(eps log N) of the sample scale.
    """
    if not isinstance(psi, FockVector):
        psi = FockVector(psi)
    if not isinstance(grid, PhaseGrid):
        raise ValueError("grid must be a PhaseGrid")
    n = np.arange(len(psi))
    weighted = psi.coefficients * np.exp(0.5 * _log_poisson(n.astype(float), grid.p))
    j = n % grid.N
    folded = np.bincount(j, weighted.real, grid.N) + 1j * np.bincount(
        j, weighted.imag, grid.N
    )
    return SampleSet(grid, np.fft.fft(folded))


def grid_samples(X, grid: PhaseGrid, stack: bool = False) -> np.ndarray:
    """Finite sample values for `grid` from a SampleSet or an array.

    Without `stack` the input must be one length-N vector.  With `stack` a
    2-d array of such rows is accepted too, and the result is always 2-d.
    """
    if isinstance(X, SampleSet):
        if X.grid != grid:
            raise ValueError(
                f"sample grid {X.grid} does not match reconstructor grid {grid}"
            )
        values = X.values
    elif stack and np.ndim(X) == 2:
        arr = np.asarray(X, dtype=complex)
        values = as_complex_vector(arr.reshape(-1), "samples").reshape(arr.shape)
    elif stack and np.ndim(X) != 1:
        raise ValueError("expected a 1-d sample vector or a 2-d stack")
    else:
        values = as_complex_vector(X, "samples")
    if values.shape[-1] != grid.N:
        raise ValueError(f"expected {grid.N} samples, got {values.shape[-1]}")
    return np.atleast_2d(values) if stack else values


def scale_by_exp(values, log_factor) -> np.ndarray:
    """values * exp(log_factor), elementwise with broadcasting, combined in
    log space so that a huge factor and a tiny value (or vice versa) do not
    overflow on the way.  Zero values stay exactly zero."""
    values = np.asarray(values, dtype=complex)
    log_factor = np.broadcast_to(log_factor, values.shape)
    out = np.zeros(values.shape, dtype=complex)
    nz = values != 0
    mag = np.abs(values[nz])
    out[nz] = np.exp(np.log(mag) + log_factor[nz]) * (values[nz] / mag)
    return out
