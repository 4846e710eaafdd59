"""Reconstruction of Fock-Bargmann wave functions from equispaced phase samples.

A state with coefficients a_0..a_M over the number basis is sampled at N
points on the circle |z|^2 = p.  With N > M the state is recovered exactly;
with N <= M only its projection onto the sampled coherent span is available,
with computable aliases and error bounds.  Dense linear-algebra oracles
cross-check every analytic path.
"""

from ._validation import NotFittedError
from .errors import (
    ErrorReport,
    assess,
    asymptotic_error_bound,
    coherent_epsilon,
    droplet,
    error_bound,
    filtered_error_bound,
    truncation_epsilon,
)
from .exact import ExactReconstructor
from .fock import (
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
from .oracle import (
    DenseFrame,
    OracleSizeError,
    dense_eig_check,
    dense_project,
    dense_pseudoinverse_fit,
    quadrature_coefficient,
)
from .partial import PartialReconstructor
from .spectral import (
    CirculantOverlap,
    SpectralData,
    aliasing_excess,
    build_overlap,
    critical_radius,
    critical_radius_asymptote,
    folded_weight,
    mode_weight,
)

__version__ = "0.1.0"

__all__ = [
    "CoherentPoint",
    "FockVector",
    "PhaseGrid",
    "SampleSet",
    "TailProfile",
    "coherent_amplitude",
    "cs_overlap",
    "evaluate",
    "sample",
    "SpectralData",
    "CirculantOverlap",
    "mode_weight",
    "folded_weight",
    "aliasing_excess",
    "critical_radius",
    "critical_radius_asymptote",
    "build_overlap",
    "ExactReconstructor",
    "PartialReconstructor",
    "truncation_epsilon",
    "coherent_epsilon",
    "droplet",
    "error_bound",
    "filtered_error_bound",
    "asymptotic_error_bound",
    "ErrorReport",
    "assess",
    "DenseFrame",
    "OracleSizeError",
    "dense_project",
    "dense_pseudoinverse_fit",
    "quadrature_coefficient",
    "dense_eig_check",
    "NotFittedError",
]
