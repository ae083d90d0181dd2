"""Closed-form reference quantities for the replication model.

Three independent anchors used throughout the tests and experiments:

* the logarithmic negativity of the reservoir field ``(nbar, mbar)``
  itself, the value that steady-state replication should reproduce on
  every inter-array pair;
* the pure 2N-qubit state that the end-driven spin chains relax into
  when the reservoir is a two-mode squeezed *vacuum*: a tensor product
  of identical Schmidt pairs, one per inter-array pair, with amplitude
  ``c = sqrt(nbar/(2*nbar+1))`` and an alternating sign on the excited
  component;
* the logarithmic negativity of one such Schmidt pair.

Qubit level convention (fixed package-wide): level index 0 is the state
every spin is pumped into by an unsqueezed vacuum bath ("ground"), index
1 is the excited level.  Qubit ordering is sites 1..N of array one
followed by sites 1..N of array two.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigInvalid, as_integer, as_real
from .gaussian import check_drive, pair_logneg

__all__ = [
    "driving_entanglement",
    "pair_amplitude",
    "pure_pair_logneg",
    "replicated_state",
]


def driving_entanglement(nbar: float, mbar: float) -> float:
    """Logarithmic negativity of the reservoir field itself.

    The drive is the isolated driven pair, occupations ``nbar`` and
    cross-moment ``mbar``, so its value is :func:`entrep.gaussian.pair_logneg`
    of those: ``max(0, -log2(2*nbar + 1 - 2*mbar))`` through the same formula,
    1e-12 separability rule and refusal of a cancelled eigenvalue as every
    pair; positive exactly when mbar > nbar.  This is the replication target
    for every pair.
    """
    nbar, mbar = check_drive(nbar, mbar)
    return float(pair_logneg(nbar, nbar, mbar))


def pair_amplitude(nbar: float) -> float:
    """Excited-component amplitude c = sqrt(nbar/(2*nbar+1)) of one pair.

    ``nbar`` is read as every occupation is (:func:`entrep.gaussian.check_drive`):
    a finite real >= 0 with a finite ``2 nbar + 1``, else ConfigInvalid.
    """
    nbar = check_drive(nbar, 0.0)[0]
    return math.sqrt(nbar / (2.0 * nbar + 1.0))


def replicated_state(nbar: float, n_pairs: int) -> np.ndarray:
    """Pure steady state of 2N end-driven spins under a squeezed-vacuum bath.

    Returns the unit-norm state vector over 2N qubits (ordering: array
    one sites 1..N, then array two sites 1..N).  Pair j (qubits j and
    N+j) carries

        sqrt(1 - c**2) |00> + (-1)**(j+1) * c |11>,

    i.e. the sign of the excited component alternates along the chain,
    starting positive at the driven end.
    """
    n_pairs = as_integer("n_pairs", n_pairs, 1)
    c = pair_amplitude(nbar)
    ground = math.sqrt(1.0 - c * c)
    psi = np.ones(1)
    for j in range(1, n_pairs + 1):
        pair = np.array([ground, 0.0, 0.0, (-1.0) ** (j + 1) * c])
        psi = np.kron(psi, pair)
    # psi is ordered pairwise: (q_1, q_{N+1}, q_2, q_{N+2}, ...).  Permute
    # axes so qubit j sits at position j for j in 1..2N.
    tensor = psi.reshape((2,) * (2 * n_pairs))
    perm = list(range(0, 2 * n_pairs, 2)) + list(range(1, 2 * n_pairs, 2))
    return tensor.transpose(perm).reshape(-1)


def pure_pair_logneg(c: float) -> float:
    """Logarithmic negativity of sqrt(1-c^2)|00> + c|11> for an amplitude c >= 0.

    For this Schmidt form the trace norm of the partial transpose is ``1 +
    2*c*sqrt(1-c^2)``, so the result is its base-2 logarithm.  A negative c is
    refused: the sign, which :func:`replicated_state` carries, changes no
    negativity.  Valid up to the balanced (Bell) point c = 1/sqrt(2), the
    supremum reachable by the replication mechanism.
    """
    c = as_real("pair amplitude", c, 0.0)
    if c > 1.0 / math.sqrt(2.0) + 1e-12:
        raise ConfigInvalid(f"pair amplitude must lie in [0, 1/sqrt(2)], got {c}")
    return math.log2(1.0 + 2.0 * c * math.sqrt(1.0 - c * c))
