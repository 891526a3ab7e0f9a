"""Simulation and parameter estimation for single-qubit phase decoherence.

The package covers the standard free-evolution experiments on one qubit:
Ramsey interferometry, spin echo, and multi-pulse CPMG dynamical decoupling.
It provides closed-form phase propagation (checked against exact
Bloch-vector products), closed-form fringe and visibility models for
shifted-Gamma inhomogeneous dephasing and Gaussian homogeneous dephasing,
Monte Carlo synthesis of finite-cycle datasets, and damped least-squares
fitting to recover the underlying parameters.

The top level re-exports the names of the documented workflow: configure an
experiment, simulate or scan it, and fit the result.  Every other public name
is imported from its own module (``dephasim.bloch``, ``dephasim.noise``,
``dephasim.analytic``, ``dephasim.montecarlo``, ``dephasim.fit``).
"""

from .analytic import t2_prime
from .bloch import SequenceSpec
from .errors import (
    ConfigError,
    DataFormatError,
    DephasimError,
    DomainError,
    FitError,
)
from .fit import (
    FITTERS,
    FitResult,
    fit_curve,
    fit_fringe,
    fit_rabi,
    fit_t1,
    fit_visibility_decay,
    points_from_counts,
    weighted_points,
)
from .montecarlo import (
    ExperimentConfig,
    FringeDataset,
    VisibilityPoint,
    scan_visibility,
    simulate_dataset,
)
from .noise import HomogeneousNoiseSpec, LightShiftDistribution

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataFormatError",
    "DephasimError",
    "DomainError",
    "ExperimentConfig",
    "FITTERS",
    "FitError",
    "FitResult",
    "FringeDataset",
    "HomogeneousNoiseSpec",
    "LightShiftDistribution",
    "SequenceSpec",
    "VisibilityPoint",
    "fit_curve",
    "fit_fringe",
    "fit_rabi",
    "fit_t1",
    "fit_visibility_decay",
    "points_from_counts",
    "scan_visibility",
    "simulate_dataset",
    "t2_prime",
    "weighted_points",
]
