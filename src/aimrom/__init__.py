"""Reduced-order modeling of dissipative PDEs via approximate inertial manifolds.

Spectral Galerkin ground truths, analytic and learned closures,
post-processing correction, and data-driven latent coordinates
(diffusion maps, geometric harmonics, autoencoders, POD).
"""

__version__ = "0.1.0"


class AimromError(Exception):
    """Base of every failure the package raises; each of its three children
    carries the CLI's exit code and the label its message is printed under."""


class ConfigurationError(AimromError, ValueError):
    """Invalid or incompatible configuration, or an artifact that does not fit it."""
    exit_code = 2
    label = "config error"


class NumericalFailure(AimromError, ArithmeticError):
    """A computation stopped being finite or could not be solved."""
    exit_code = 3
    label = "numeric failure"


class MissingArtifactError(AimromError, LookupError):
    """A stored model is absent, or its file no longer hashes to its key."""
    exit_code = 4
    label = "missing artifact"
