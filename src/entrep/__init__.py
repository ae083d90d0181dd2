"""Steady-state simulator for entanglement replication in driven arrays.

Two mutually non-interacting arrays (coupled cavities, or spin chains)
are connected only through a shared two-mode squeezed reservoir pumping
their first sites.  In the steady state every inter-array pair of like
sites inherits the reservoir's entanglement — exactly so when the arrays
are lossless.  The package computes:

* Gaussian steady states of the cavity model via N x N moment equations,
  per-pair logarithmic-negativity profiles, and disorder ensembles
  (:mod:`entrep.arrays`, :mod:`entrep.gaussian`);
* closed-form reference statistics and the replicated pure spin state
  (:mod:`entrep.baselines`);
* frequency-resolved entanglement of the fields leaking from lossy
  cavities (:mod:`entrep.output`);
* finite-dimensional master equations: driven XX spin chains, the
  adiabatically eliminated effective atom dynamics, and a Fock-truncated
  cavity+atom oracle (:mod:`entrep.spins`, :mod:`entrep.liouville`);
* reproducible experiment sweeps with CSV output
  (:mod:`entrep.experiments`) and cross-model validation suites
  (:mod:`entrep.validate`), both also reachable through the ``entrep``
  command-line tool (:mod:`entrep.cli`).
"""

from __future__ import annotations

from .arrays import ArrayConfig, pair_entanglement_profile
from .baselines import driving_entanglement
from .errors import ExperimentFailed, ModelError
from .experiments import EXPERIMENTS, run_experiment
from .liouville import logneg_qubits, reduced_pair_dm, steady_state_dm
from .spins import build_xx_liouvillian

__version__ = "0.1.0"

__all__ = [
    "EXPERIMENTS",
    "ArrayConfig",
    "ExperimentFailed",
    "ModelError",
    "__version__",
    "build_xx_liouvillian",
    "driving_entanglement",
    "logneg_qubits",
    "pair_entanglement_profile",
    "reduced_pair_dm",
    "run_experiment",
    "steady_state_dm",
]
