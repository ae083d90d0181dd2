"""Exception hierarchy for the entrep package.

Everything raised intentionally by this package derives from
:class:`ModelError`, so callers can catch a single type at the CLI
boundary.  The subclasses are deliberately fine-grained: numerical
failure modes (non-Hurwitz drift, degenerate steady states, unconverged
Fock truncations) need different remedies, and the validation layer
reports them separately.
"""

from __future__ import annotations


class ModelError(Exception):
    """Base class for all errors raised by entrep."""


class ConfigInvalid(ModelError, ValueError):
    """A configuration value is out of range or inconsistent."""


class OverSqueezed(ConfigInvalid):
    """Squeezing correlation exceeds the physical bound for the given occupation."""


class IndexOutOfRange(ModelError, IndexError):
    """A mode or pair index does not exist for the configured array size."""


class NotHurwitz(ModelError):
    """The drift matrix has an eigenvalue with non-negative real part.

    The steady state only exists when every drift eigenvalue strictly
    decays; this is raised before any steady-state solve is attempted.
    """


class NotPositiveDefinite(ModelError):
    """A covariance matrix fails the physicality check."""


class NonPhysicalResult(ModelError):
    """A computed quantity violates a physical bound (e.g. negative spectrum)."""


class ClosedPort(ModelError):
    """An output spectrum was requested on a mode with zero local loss."""


class DimensionBudgetExceeded(ModelError):
    """A requested Fock-space build would exceed the configured dimension cap."""


class DegenerateSteadyState(ModelError):
    """The Liouvillian kernel is (numerically) more than one-dimensional."""


class NoConvergence(ModelError):
    """A solver result fails its residual or normalization check."""


class TruncationUnconverged(ModelError):
    """Observables still shift when the Fock cutoff is raised."""


class InvalidState(ModelError):
    """A density matrix fails trace/Hermiticity/positivity checks."""


class ExperimentFailed(ModelError):
    """A sweep point of an experiment raised; the message names the point."""
