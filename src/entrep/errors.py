"""Exception hierarchy for the entrep package.

Everything raised intentionally by this package derives from
:class:`ModelError`, so callers can catch a single type at the CLI
boundary.  The subclasses are deliberately fine-grained: numerical
failure modes (non-Hurwitz drift, degenerate steady states, unconverged
Fock truncations) need different remedies, and the validation layer
reports them separately.

:func:`as_integer` is the one rule every count, index and seed passes on its
way in, :func:`as_seed` the one seed range and :data:`ROUNDOFF_RTOL` the one
round-off level; they live here because every module already imports this one.
"""

from __future__ import annotations

import numpy as np


#: Entries at or below this times a problem's scale are round-off: a stored
#: Liouvillian drops them, and neither an imaginary part that a real basis or
#: gauge must remove nor a swap-parity crossing may exceed it.
ROUNDOFF_RTOL = 1e-12


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


def as_integer(key: str, value, minimum: int | None = None, bound: int | None = None) -> int:
    """``value`` as an int in ``[minimum, bound)``, either end optional.

    A string must spell an int and a number must be whole, so no value is
    rounded on its way in; a bool is not a count and is refused.  Anything
    else raises :class:`ConfigInvalid` naming ``key``.
    """
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        number = int(value) if isinstance(value, str) else value
        if number != int(number):
            raise ValueError
        number = int(number)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"{key} = {value!r} is not an integer") from exc
    if minimum is not None and number < minimum:
        raise ConfigInvalid(f"{key} must be >= {minimum}, got {number}")
    if bound is not None and number >= bound:
        raise ConfigInvalid(f"{key} must be < {bound}, got {number}")
    return number


def as_seed(value) -> int:
    """``value`` as a seed: an integer that fits in an unsigned 64-bit word."""
    return as_integer("seed", value, 0, 2**64)
