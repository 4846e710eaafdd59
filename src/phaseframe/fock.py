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
        return FockVector(coherent_amplitude(np.arange(length), zeta))

    def to_json(self) -> dict:
        tail = None
        if self.tail is not None:
            tail = {"C": self.tail.C, "alpha": self.tail.alpha}
        return {"coefficients": _pairs(self.coefficients), "tail": tail}

    @staticmethod
    def from_json(data: dict) -> "FockVector":
        if not isinstance(data, dict) or "coefficients" not in data:
            raise ValueError("state JSON must contain a 'coefficients' field")
        coeff = _from_pairs(data["coefficients"], "coefficient list")
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
        return PhaseGrid(data["N"], data["p"])


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
        return SampleSet(grid, _from_pairs(data["values"], "sample values"))


def _pairs(values) -> list:
    """Complex values as JSON [re, im] pairs of builtin floats, bit for bit."""
    return np.column_stack([values.real, values.imag]).tolist()


def _from_pairs(pairs, what: str) -> np.ndarray:
    """The complex array of a JSON [re, im] pair list, one complex() each."""
    try:
        return np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _log_poisson(m, p: float, offset: float = 0.0):
    """offset + log(e^{-p} p^m / m!): the log Poisson pmf, shifted."""
    return offset - p + m * math.log(p) - gammaln(m + 1.0)


def coherent_amplitude(n, z) -> complex:
    """Overlap <n|z> = e^{-|z|^2/2} z^n / sqrt(n!) for n >= 0, a scalar or an
    array; |result| <= 1, and no factorial or power of z is formed."""
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("mode index n must be >= 0")
    nf = n.astype(float)
    z = _as_z(z)
    az = abs(z)
    if az == 0.0:
        logmag = np.where(n == 0, 0.0, -np.inf)
        phase = np.zeros_like(nf)
    else:
        logmag = -0.5 * az * az + nf * math.log(az) - 0.5 * gammaln(nf + 1.0)
        phase = nf * cmath.phase(z)
    out = np.exp(logmag) * np.exp(1j * phase)
    if np.ndim(n) == 0:
        return complex(out)
    return out


def cs_overlap(z1, z2):
    """Coherent-state overlap <z1|z2> = e^{-|z1|^2/2 - |z2|^2/2 + conj(z1) z2}.

    z1 and z2 may be scalars (or CoherentPoints) or arrays that broadcast
    together; two scalars give a builtin complex, otherwise an array.  The
    exponent is evaluated as -|z1 - z2|^2/2 + i Im(conj(z1) z2): its real
    part is exactly non-positive, so |<z1|z2>| <= 1 holds in floating point
    and no overflow is possible, and swapping the arguments negates the
    imaginary part exactly.  Where Im(conj(z1) z2) overflows but the value
    is not 0, it is formed as Im(conj(m) (z2 - z1)) with m = (z1 + z2)/2,
    which is antisymmetric too.
    """
    z1, z2 = (np.asarray(_as_z(z) if np.ndim(z) == 0 else z, dtype=complex) for z in (z1, z2))
    with np.errstate(all="ignore"):  # silent, as Python floats are, past |z| ~ 1e154
        d = z1 - z2
        w = np.empty(d.shape, dtype=complex)
        w.real = -0.5 * (d.real * d.real + d.imag * d.imag)
        w.imag = z1.real * z2.imag - z1.imag * z2.real
        # inf - inf where the value is not 0 anyway (|z1 - z2|^2 finite):
        # Im(conj(z1) z2) = Im(conj(m) (z2 - z1)), m the midpoint
        big = ~np.isfinite(w.imag) & (w.real > -np.inf)
        if big.any():
            m = 0.5 * z1 + 0.5 * z2
            w.imag[big] = (m.imag * d.real - m.real * d.imag)[big]
        out = np.exp(w)
    return complex(out) if out.ndim == 0 else out


def evaluate(psi: FockVector, z):
    """Wave function Psi(z) = sum_n a_n conj(U_n(z)) of a stored state.

    z may be a scalar or an array; the return matches its shape.
    """
    if not isinstance(psi, FockVector):
        psi = FockVector(psi)
    nonzero = np.flatnonzero(psi.coefficients)  # series_at stops there too
    K = nonzero[-1] + 1 if nonzero.size else 0
    return series_at(z, -0.5 * gammaln(np.arange(K) + 1.0), psi.coefficients)


# exp(x) rounds to exactly 0 below this: it is under half the smallest
# subnormal by a factor of e/2
_LOG_TINY = math.log(np.finfo(float).smallest_subnormal) - 1.0
# log of the unit roundoff u = 2^-53: the series keeps, at each point, the
# modes whose term is at least u/K of the point's largest, K modes in all
_LOG_U = math.log(np.finfo(float).eps / 2)
# elements of one (points x modes) block of the off-grid series
_BLOCK = 1 << 14


def series_at(z, log_c, weights, scale=1.0, log_offset=0.0):
    """exp(log_offset - |z|^2/2) sum_n exp(log_c_n) w0^n weights_n with
    w0 = scale * conj(z), for a scalar or an array z (the return matches).

    Every off-grid route is this series over K modes, up to the last nonzero
    weight.  Each point sums only its own window: the modes from the first
    to the last whose term t_n = exp(log_c_n) w0^n weights_n has
    |t_n| >= (u/K) max|t|, u = 2^-53.  The terms dropped sum to less than
    u max|t|, inside the rounding of the sum itself.  A point with no
    nonzero term has an empty window and gives an exact 0.  Each term is one
    exp of log|t_n| - max log|t| + i arg t_n, so no |z| overflows, and the
    shift is folded back by scale_by_exp.  Windows are found and summed in
    one masked pass over blocks of at most _BLOCK points x modes (one point
    per block if K is larger), cut to the columns some window of the block
    reaches.  O(points x K) real work and one complex exp per windowed term.
    A NaN or infinite z is a ValueError.
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
            log_t = log_c[:K] + np.log(np.abs(weights[:K]))  # log|c_n weights_n|
        arg_t = np.arctan2(weights[:K].imag, weights[:K].real)
        theta = np.arctan2(w0.imag, w0.real)
        rows = max(1, _BLOCK // K)
        for lo in range(0, w0.size, rows):
            b = slice(lo, lo + rows)
            with np.errstate(invalid="ignore"):
                x = np.multiply.outer(log_abs[b], n)
            x[:, 0] = 0.0  # w0^0 = 1, also at w0 = 0
            x += log_t
            top = x.max(axis=1)
            keep = x >= (top + (_LOG_U - math.log(K)))[:, None]
            # no nonzero term: an empty window that adds no column; a NaN keeps
            # nothing, so its window is all K modes and the NaN reaches the output
            empty = top == -np.inf
            first = np.where(empty, K, keep.argmax(axis=1))
            end = np.where(empty, 0, K - keep[:, ::-1].argmax(axis=1))
            cols = slice(first.min(), end.max())
            window = (n[cols] >= first[:, None]) & (n[cols] < end[:, None])
            terms = np.empty(window.shape, dtype=complex)
            np.subtract(x[:, cols], top[:, None], out=terms.real, where=window)
            terms.imag = np.multiply.outer(theta[b], n[cols]) + arg_t[cols]
            np.exp(terms, out=terms, where=window)
            sums = np.add.reduce(terms, axis=1, where=window)
            out[b] = scale_by_exp(sums, log_pref[b] + top)
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
    out[nz] = np.exp(np.log(mag) + log_factor[nz]) * unit_phase(values[nz], mag)
    return out


def unit_phase(values, mag) -> np.ndarray:
    """values / mag, with mag = |values|, and 0 where mag is 0 (a 0/0 the
    caller silences).  Entries with |values| below the smallest normal
    double are scaled by 2^600 (exactly) first, since a complex division by
    a subnormal overflows; every other entry is the plain quotient."""
    zero, small = mag == 0, mag < np.finfo(float).tiny
    if np.count_nonzero(small) > np.count_nonzero(zero):  # a subnormal
        values = np.where(small, values * 2.0**600, values)
        mag = np.abs(values)
    return np.where(zero, 0, values / mag)
