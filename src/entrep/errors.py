"""Exception hierarchy for the entrep package.

Everything raised intentionally by this package derives from
:class:`ModelError`, so callers can catch a single type at the CLI
boundary.  The subclasses are deliberately fine-grained: numerical
failure modes (non-Hurwitz drift, degenerate steady states, unconverged
Fock truncations) need different remedies, and the validation layer
reports them separately.

:func:`as_integer` is the one rule every count, index and seed passes on its
way in and :func:`as_real` its twin for every rate, occupation and frequency,
:func:`as_seed` the one seed range and :data:`ROUNDOFF_RTOL` the one round-off
level.  :func:`certify` is the one comparison of a solver certificate
with its threshold: every bound a solver result must meet (Hurwitz margin,
residuals, physicality, kernel condition, truncation shift) passes through it,
so a NaN or an infinite value fails each of them alike, and every refusal names
the value, the bound and the failing slice.  They live here because every
module already imports this one.
"""

from __future__ import annotations

import math

import numpy as np


#: Entries at or below this times a problem's scale are round-off: a stored
#: Liouvillian drops them, and neither an imaginary part that a real basis
#: must remove nor a swap-parity crossing may exceed it.
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


#: types that ``float()`` would read but that are not real numbers
_NOT_REAL = (bool, np.bool_, complex, np.complexfloating)


def as_real(key: str, value, minimum: float | None = None, *, strict: bool = False) -> float:
    """``value`` as a finite float ``>= minimum`` (``> minimum`` if ``strict``).

    ``minimum`` is optional.  A string must spell a number; a bool, a complex
    number, a non-scalar, NaN and an infinity are refused.  Every refusal is a
    :class:`ConfigInvalid` naming ``key``.
    """
    try:
        # a float is taken as it is; only other types need the type check
        if type(value) is not float and isinstance(value, _NOT_REAL):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"{key} = {value!r} is not a real number") from exc
    if not math.isfinite(number):
        raise ConfigInvalid(f"{key} must be finite, got {number}")
    if minimum is not None and (number <= minimum if strict else number < minimum):
        raise ConfigInvalid(f"{key} must be {'>' if strict else '>='} {minimum}, got {number}")
    return number


def as_seed(value) -> int:
    """``value`` as a seed: an integer that fits in an unsigned 64-bit word."""
    return as_integer("seed", value, 0, 2**64)


def certify(values, bound, error: type[ModelError], what: str, *, strict: bool = False):
    """``values``, unchanged, when each is finite and ``<= bound`` (``< bound`` if ``strict``).

    Otherwise raises ``error``.  A NaN fails every comparison and an infinite
    value is not finite, so neither can pass.  ``values`` is a scalar or holds
    one entry (or row) per slice of an ``(S, ...)`` stack, and ``bound`` is a
    scalar or broadcasts against it.  The message is ``what``, then the first
    failing slice of a stack, then that value and its bound.  A lower bound
    ``x >= b`` is certified as ``-x <= -b``.
    """
    checked = np.asarray(values)
    passed = np.isfinite(checked) & (checked < bound if strict else checked <= bound)
    if passed.all():
        return values
    first = int(np.flatnonzero(~passed)[0])
    where = f" (slice {np.unravel_index(first, passed.shape)[0]})" if passed.ndim else ""
    value = np.broadcast_to(checked, passed.shape).flat[first]
    limit = np.broadcast_to(bound, passed.shape).flat[first]
    raise error(f"{what}{where} = {value:.6g}, not {'<' if strict else '<='} {limit:.6g}")
