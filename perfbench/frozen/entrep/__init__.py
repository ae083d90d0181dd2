"""Steady-state simulator for entanglement replication in driven arrays.

Two mutually non-interacting arrays (coupled cavities, or spin chains)
are connected only through a shared two-mode squeezed reservoir pumping
their first sites.  In the steady state every inter-array pair of like
sites inherits the reservoir's entanglement — exactly so when the arrays
are lossless.  The package computes:

* Gaussian steady states of the cavity model via Lyapunov equations,
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

from .arrays import (
    ArrayConfig,
    DisorderResult,
    DisorderSpec,
    EntanglementProfile,
    diffusion_matrix,
    disorder_sweep,
    drift_matrices,
    pair_entanglement_profile,
    steady_state,
)
from .baselines import (
    driving_entanglement,
    driving_params,
    pair_amplitude,
    pure_pair_logneg,
    replicated_state,
)
from .errors import ExperimentFailed, ModelError
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ResultTable,
    read_config_file,
    resolve_params,
    run_experiment,
)
from .gaussian import (
    DriftDiffusion,
    QuadratureCovariance,
    log_negativity_gaussian,
    normalized_logneg,
    solve_lyapunov,
    symplectic_eigenvalues,
    two_mode_squeezed_thermal_cm,
)
from .liouville import (
    Liouvillian,
    fidelity_pure,
    logneg_qubits,
    partial_trace,
    reduced_pair_dm,
    steady_state_dm,
)
from .output import (
    OutputSpectrum,
    assemble_output_correlations,
    ladder_correlations_from_cm,
    output_covariance,
    output_pair_spectrum,
    peak_frequency,
)
from .spins import (
    TruncationSpec,
    adiabaticity_ratio,
    build_effective_closed_form,
    build_effective_general,
    build_xx_liouvillian,
    closed_form_rates,
    coupling_pattern_matrices,
    full_cavity_atom_oracle,
)
from .validate import (
    SUITE_NAMES,
    CheckResult,
    SuiteReport,
    report_to_json,
    run_all,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "EXPERIMENTS",
    "SUITE_NAMES",
    "ArrayConfig",
    "CheckResult",
    "DisorderResult",
    "DisorderSpec",
    "DriftDiffusion",
    "EntanglementProfile",
    "ExperimentConfig",
    "ExperimentFailed",
    "Liouvillian",
    "ModelError",
    "OutputSpectrum",
    "QuadratureCovariance",
    "ResultTable",
    "SuiteReport",
    "TruncationSpec",
    "__version__",
    "adiabaticity_ratio",
    "assemble_output_correlations",
    "build_effective_closed_form",
    "build_effective_general",
    "build_xx_liouvillian",
    "closed_form_rates",
    "coupling_pattern_matrices",
    "diffusion_matrix",
    "disorder_sweep",
    "drift_matrices",
    "driving_entanglement",
    "driving_params",
    "fidelity_pure",
    "full_cavity_atom_oracle",
    "ladder_correlations_from_cm",
    "log_negativity_gaussian",
    "logneg_qubits",
    "normalized_logneg",
    "output_covariance",
    "output_pair_spectrum",
    "pair_amplitude",
    "pair_entanglement_profile",
    "partial_trace",
    "peak_frequency",
    "pure_pair_logneg",
    "read_config_file",
    "reduced_pair_dm",
    "replicated_state",
    "report_to_json",
    "resolve_params",
    "run_all",
    "run_experiment",
    "run_suite",
    "solve_lyapunov",
    "steady_state",
    "steady_state_dm",
    "symplectic_eigenvalues",
    "two_mode_squeezed_thermal_cm",
]
