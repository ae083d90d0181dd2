"""The one rule for a real input, ``errors.as_real``, its twin for an integer,
``errors.as_integer``, and the one comparison of a solver certificate with its
bound, ``errors.certify``."""

import math

import numpy as np
import pytest

from entrep import validate
from entrep.arrays import ArrayConfig, DisorderSpec, steady_state
from entrep.baselines import driving_entanglement, pair_amplitude, pure_pair_logneg
from entrep.errors import (
    ConfigInvalid,
    IndexOutOfRange,
    NoConvergence,
    NotHurwitz,
    as_real,
    certify,
)
from entrep.experiments import EXPERIMENTS, ExperimentConfig, resolve_params
from entrep.gaussian import check_drive, symplectic_form
from entrep.liouville import partial_trace, reduced_pair_dm
from entrep.output import output_pair_spectrum, peak_frequency
from entrep.spins import (
    build_effective_closed_form,
    build_xx_liouvillian,
    coupling_pattern_matrices,
    full_cavity_atom_oracle,
)


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, "nan", "-inf", True, np.True_, None, 1 + 0j,
     np.complex128(1.0), np.array([1.0]), (1.0,), "one", "", 10**400],
)
def test_as_real_refuses_what_is_not_a_finite_real(value):
    with pytest.raises(ConfigInvalid, match="^rate "):
        as_real("rate", value)


@pytest.mark.parametrize(
    "value, number",
    [(2, 2.0), (" 2.5 ", 2.5), ("1e-3", 1e-3), (np.float32(0.5), 0.5), (np.int64(-3), -3.0),
     (np.array(4.0), 4.0), (-0.0, -0.0)],
)
def test_as_real_returns_a_float(value, number):
    result = as_real("rate", value)
    assert type(result) is float and result == number


def test_as_real_bounds_below_at_or_strictly_above_the_minimum():
    assert as_real("rate", 0.0, 0.0) == 0.0
    with pytest.raises(ConfigInvalid, match=r"^rate must be > 0\.0, got 0\.0$"):
        as_real("rate", 0.0, 0.0, strict=True)
    assert as_real("rate", 5e-324, 0.0, strict=True) == 5e-324
    with pytest.raises(ConfigInvalid, match=r"^rate must be >= 0\.0, got -1e-300$"):
        as_real("rate", "-1e-300", 0.0)


def test_as_real_names_the_key_and_the_value():
    with pytest.raises(ConfigInvalid) as caught:
        as_real("kappa[3]", "x", 0.0)
    assert str(caught.value) == "kappa[3] = 'x' is not a real number"
    with pytest.raises(ConfigInvalid) as caught:
        as_real("kappa[3]", "inf", 0.0)
    assert str(caught.value) == "kappa[3] must be finite, got inf"


# Every public entry point that takes a real value or a budget, called with a
# value it must refuse (a ConfigInvalid, never a bare TypeError or ValueError)
# or with a spelled number it must read as that number.
BASE = dict(n_sites=2, eta=(1.0, 1.0), kappa=(0.0,) * 4, zeta=1.0, nbar=0.0, mbar=0.0)
OPEN = ArrayConfig.homogeneous(2, kappa=0.5, nbar=1.0, mbar=1.0)
# an undriven pair of modes: the Fock cutoff 1 is exact, its recheck at 3 has side 256
VACUUM = ArrayConfig.homogeneous(1, zeta=1.0)


def config(**over):
    return ArrayConfig(**{**BASE, **over})


def sweep(experiment, **overrides):
    return EXPERIMENTS[experiment].sweep(resolve_params(ExperimentConfig(experiment, overrides)))


def matrix(liouvillian):
    return liouvillian.matrix.toarray().tolist()


REFUSED = {
    "ArrayConfig-zeta-None": lambda: config(zeta=None),
    "ArrayConfig-zeta-bool": lambda: config(zeta=True),
    "ArrayConfig-nbar-None": lambda: config(nbar=None),
    "ArrayConfig-mbar-text": lambda: config(mbar="x"),
    "ArrayConfig-eta-nan": lambda: config(eta=(1.0, math.nan)),
    "ArrayConfig-kappa-negative": lambda: config(kappa=(0.0, -1.0, 0.0, 0.0)),
    "ArrayConfig-g-scalar": lambda: config(g=1.0),
    "DisorderSpec-delta_xi-None": lambda: DisorderSpec(config(), None, 2, 0),
    "DisorderSpec-delta_xi-inf": lambda: DisorderSpec(config(), math.inf, 2, 0),
    "check_drive-None": lambda: check_drive(None, 0),
    "driving_entanglement-text": lambda: driving_entanglement("x", 0),
    "pair_amplitude-None": lambda: pair_amplitude(None),
    "pure_pair_logneg-None": lambda: pure_pair_logneg(None),
    "pure_pair_logneg-negative": lambda: pure_pair_logneg(-0.1),
    "build_xx_liouvillian-coupling-text": lambda: build_xx_liouvillian(2, "a", 1.0, 0, 0),
    "build_xx_liouvillian-gamma-None": lambda: build_xx_liouvillian(1, 1.0, None, 0, 0),
    "build_xx_liouvillian-gamma-zero": lambda: build_xx_liouvillian(1, 1.0, 0.0, 0, 0),
    "build_effective_closed_form-eta-None": lambda: build_effective_closed_form(
        2, eta=None, zeta=1.0, g=0.1, nbar=0, mbar=0
    ),
    "build_effective_closed_form-g-zero": lambda: build_effective_closed_form(
        2, eta=1.0, zeta=1.0, g=0.0, nbar=0, mbar=0
    ),
    "output_pair_spectrum-text": lambda: output_pair_spectrum(OPEN, ["a"]),
    "output_pair_spectrum-nan": lambda: output_pair_spectrum(OPEN, [0.0, math.nan]),
    "output_pair_spectrum-scalar": lambda: output_pair_spectrum(OPEN, 0.5),
    "peak_frequency-None": lambda: peak_frequency(OPEN, [None, 1.0]),
    "check_drive-scale-overflow": lambda: check_drive(1e308, 0.0),
    "steady_state-source-overflow": lambda: steady_state(
        ArrayConfig.homogeneous(1, zeta=1e300, nbar=1e10)
    ),
    "resolve_params-bool": lambda: sweep("custom", eta=True),
    "resolve_params-inf": lambda: sweep("custom", eta="inf"),
    "levels-text": lambda: sweep("fig2a", kappa_levels="0.1,x"),
    "levels-negative": lambda: sweep("fig3a", delta_levels="0.1,-0.2"),
    "fig2c-nbar_min-negative": lambda: sweep("fig2c", nbar_min=-1.0),
    "custom-kappa_end-negative": lambda: sweep("custom", kappa_end=-1.0),
    "log-grid-zero": lambda: sweep("fig2e", kappa_end_min=0.0),
    "run_suite-budget-text": lambda: validate.run_suite("fixed-point", "x"),
    "run_suite-budget-zero": lambda: validate.run_suite("fixed-point", 0),
    "run_suite-budget-fraction": lambda: validate.run_suite("fixed-point", 2.5),
    "run_suite-unknown": lambda: validate.run_suite("nope"),
    "run_all-budget-None": lambda: validate.run_all(None),
    "full_cavity_atom_oracle-budget-text": lambda: full_cavity_atom_oracle(VACUUM, 1, budget="x"),
    "full_cavity_atom_oracle-budget-zero": lambda: full_cavity_atom_oracle(VACUUM, 1, budget=0),
}

SPELLED = {
    "ArrayConfig-zeta": (lambda: config(zeta="1"), lambda: config(zeta=1.0)),
    "ArrayConfig-drive": (
        lambda: config(nbar="1", mbar="1.25"), lambda: config(nbar=1.0, mbar=1.25)
    ),
    "ArrayConfig-eta": (lambda: config(eta=("1", 2)), lambda: config(eta=(1.0, 2.0))),
    "DisorderSpec-delta_xi": (
        lambda: DisorderSpec(config(), "0.5", 2, 0).delta_xi,
        lambda: DisorderSpec(config(), 0.5, 2, 0).delta_xi,
    ),
    "check_drive": (lambda: check_drive("1", "1"), lambda: check_drive(1.0, 1.0)),
    "pair_amplitude": (lambda: pair_amplitude("1"), lambda: pair_amplitude(1.0)),
    "pure_pair_logneg": (lambda: pure_pair_logneg("0.5"), lambda: pure_pair_logneg(0.5)),
    "build_xx_liouvillian-gamma": (
        lambda: matrix(build_xx_liouvillian(1, 1.0, "1", 0, 0)),
        lambda: matrix(build_xx_liouvillian(1, 1.0, 1.0, 0, 0)),
    ),
    "build_xx_liouvillian-coupling": (
        lambda: matrix(build_xx_liouvillian(2, "0.5", 1.0, 0, 0)),
        lambda: matrix(build_xx_liouvillian(2, 0.5, 1.0, 0, 0)),
    ),
    "build_effective_closed_form-eta": (
        lambda: matrix(build_effective_closed_form(2, eta="1", zeta=1, g=0.1, nbar=0, mbar=0)),
        lambda: matrix(build_effective_closed_form(2, eta=1.0, zeta=1.0, g=0.1, nbar=0, mbar=0)),
    ),
    "output_pair_spectrum": (
        lambda: output_pair_spectrum(OPEN, ["0.5"]).raw.tolist(),
        lambda: output_pair_spectrum(OPEN, [0.5]).raw.tolist(),
    ),
    "run_suite-budget": (
        lambda: validate.run_suite("fixed-point", "20"),
        lambda: validate.run_suite("fixed-point", 20),
    ),
    "full_cavity_atom_oracle-budget": (
        lambda: full_cavity_atom_oracle(VACUUM, 1, budget="256").moments.tolist(),
        lambda: full_cavity_atom_oracle(VACUUM, 1, budget=256).moments.tolist(),
    ),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_an_entry_point_refuses_a_bad_value_as_config_invalid(call):
    with pytest.raises(ConfigInvalid):
        call()


@pytest.mark.parametrize("spelled, number", SPELLED.values(), ids=SPELLED.keys())
def test_an_entry_point_reads_a_spelled_number_as_that_number(spelled, number):
    assert spelled() == number()


# A state of four qubits with no symmetry between them.
_FACTOR = np.random.default_rng(5).standard_normal((16, 16))
FOUR_QUBITS = _FACTOR @ _FACTOR.T / np.trace(_FACTOR @ _FACTOR.T)

# Counts and indices pass errors.as_integer and a tuple field refuses text:
# each call raises the error beside it, or equals the call beside it.  Before,
# a fraction or text ended in a bare TypeError, a fractional dimension was
# truncated, a bool counted as 0 or 1 and text was read character by character.
INTEGERS = {
    "ArrayConfig-eta-text": (lambda: config(eta="11"), ConfigInvalid),
    "ArrayConfig-kappa-text": (lambda: config(kappa="0000"), ConfigInvalid),
    "ArrayConfig-g-text": (lambda: config(g="00"), ConfigInvalid),
    "coupling_pattern_matrices-fraction": (lambda: coupling_pattern_matrices(1.5), ConfigInvalid),
    "coupling_pattern_matrices-bool": (lambda: coupling_pattern_matrices(True), ConfigInvalid),
    "coupling_pattern_matrices-spelled": (
        lambda: coupling_pattern_matrices("3"), lambda: coupling_pattern_matrices(3)
    ),
    "symplectic_form-fraction": (lambda: symplectic_form(1.5), ConfigInvalid),
    "symplectic_form-zero": (lambda: symplectic_form(0), ConfigInvalid),
    "reduced_pair_dm-fraction": (lambda: reduced_pair_dm(FOUR_QUBITS, 0.5, 1), ConfigInvalid),
    "reduced_pair_dm-bool": (lambda: reduced_pair_dm(FOUR_QUBITS, True, 0), ConfigInvalid),
    "reduced_pair_dm-spelled": (
        lambda: reduced_pair_dm(FOUR_QUBITS, "0", 1), lambda: reduced_pair_dm(FOUR_QUBITS, 0, 1)
    ),
    "reduced_pair_dm-repeated": (lambda: reduced_pair_dm(FOUR_QUBITS, 2, 2), IndexOutOfRange),
    "reduced_pair_dm-out-of-range": (lambda: reduced_pair_dm(FOUR_QUBITS, 0, 4), IndexOutOfRange),
    "partial_trace-whole-float": (
        lambda: partial_trace(FOUR_QUBITS, (2,) * 4, (1.0,)),
        lambda: partial_trace(FOUR_QUBITS, (2,) * 4, (1,)),
    ),
    "partial_trace-fraction": (lambda: partial_trace(FOUR_QUBITS, (2,) * 4, (0.5,)), ConfigInvalid),
    "partial_trace-dims-fraction": (
        lambda: partial_trace(FOUR_QUBITS, (2.5, 2, 2, 2), (0,)), ConfigInvalid
    ),
    "partial_trace-repeated": (lambda: partial_trace(FOUR_QUBITS, (2,) * 4, (1, 1)), IndexOutOfRange),
}


@pytest.mark.parametrize("call, expected", INTEGERS.values(), ids=INTEGERS.keys())
def test_a_count_or_index_passes_the_one_integer_rule(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        assert np.array_equal(np.asarray(call()), np.asarray(expected()))


def test_a_config_stores_its_drive_as_floats():
    cfg = config(zeta=1, nbar="1", mbar=np.float32(1.25))
    assert all(type(value) is float for value in (cfg.zeta, cfg.nbar, cfg.mbar))
    assert (cfg.zeta, cfg.nbar, cfg.mbar) == (1.0, 1.0, 1.25)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("strict", [False, True])
def test_non_finite_values_fail(value, strict):
    # -inf is below every bound, and still no certificate
    with pytest.raises(NoConvergence, match=f"= {value}, not"):
        certify(value, 1.0, NoConvergence, "residual", strict=strict)
    with pytest.raises(NoConvergence, match=r"\(slice 1\)"):
        certify(np.array([0.5, value]), 1.0, NoConvergence, "residual", strict=strict)


def test_equality_passes_a_bound_and_fails_a_strict_one():
    assert certify(-1e-12, -1e-12, NotHurwitz, "margin") == -1e-12
    with pytest.raises(NotHurwitz, match="= -1e-12, not < -1e-12"):
        certify(-1e-12, -1e-12, NotHurwitz, "margin", strict=True)
    assert certify(np.nextafter(-1e-12, -1.0), -1e-12, NotHurwitz, "margin", strict=True)


def test_a_stack_names_its_first_failing_slice():
    values = np.array([0.0, 2.0, 0.5, 3.0])
    with pytest.raises(NoConvergence, match=r"^residual \(slice 1\) = 2, not <= 1$"):
        certify(values, 1.0, NoConvergence, "residual")
    # rows of an (S, K) stack, and a bound per slice
    rows = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 4.0]])
    with pytest.raises(NoConvergence, match=r"\(slice 2\) = 4, not <= 3$"):
        certify(rows, np.array([[1.0], [2.0], [3.0]]), NoConvergence, "residual")


def test_a_scalar_names_no_slice():
    with pytest.raises(NoConvergence) as caught:
        certify(np.float64(2.0), 1.0, NoConvergence, "residual")
    assert str(caught.value) == "residual = 2, not <= 1"
    assert "slice" not in str(caught.value)


def test_the_message_carries_the_value_and_the_bound():
    with pytest.raises(NoConvergence) as caught:
        certify(np.array([3.25e-5]), 2.5e-10, NoConvergence, "Sylvester residual")
    assert str(caught.value) == "Sylvester residual (slice 0) = 3.25e-05, not <= 2.5e-10"


def test_the_values_come_back_unchanged():
    values = np.array([-0.0, 0.25, 1.0])
    assert certify(values, 1.0, NoConvergence, "residual") is values
    assert np.array_equal(values, [-0.0, 0.25, 1.0]) and np.signbit(values[0])
    assert certify(0.5, 1.0, NoConvergence, "residual") == 0.5
    assert certify(3, 3, NoConvergence, "info") == 3
