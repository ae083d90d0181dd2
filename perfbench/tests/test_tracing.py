"""The tracer wraps every alias of each timed function and leaves no trace."""

import sys

import pytest

import entrep
import tracing
import workloads


def _entrep_modules():
    return [m for n, m in sys.modules.items() if n == "entrep" or n.startswith("entrep.")]


def _aliases(func):
    return [
        (module, attr)
        for module in _entrep_modules()
        for attr, value in vars(module).items()
        if value is func
    ]


def _originals():
    return {
        qualified: getattr(sys.modules[f"entrep.{qualified.split('.')[0]}"], qualified.split(".")[1])
        for qualified in tracing.FUNCTIONS
    }


def test_every_alias_is_replaced_then_restored(tmp_path):
    originals = _originals()
    aliases = {name: _aliases(func) for name, func in originals.items()}
    # Cross-module imports that a wrapper on the defining module alone would miss.
    assert (sys.modules["entrep.output"], "steady_state") in aliases["arrays.steady_state"]
    assert (sys.modules["entrep.spins"], "steady_state_dm") in aliases["liouville.steady_state_dm"]
    assert (entrep, "run_experiment") in aliases["experiments.run_experiment"]

    tracer = tracing.Tracer(tmp_path)
    with tracer:
        for name, func in originals.items():
            assert _aliases(func) == [], f"{name} still bound somewhere"
            wrappers = {getattr(module, attr) for module, attr in aliases[name]}
            assert len(wrappers) == 1 and wrappers != {func}
    for name, func in originals.items():
        assert _aliases(func) == aliases[name]


def test_install_twice_is_refused(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()
    assert _aliases(_originals()["validate.run_suite"])


def _span(name, start, end, span_id, parent=None):
    return tracing.Span(name, start, end, span_id, parent, "r", None)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("arrays.disorder_sweep", 0, 10_000_000_000, "p"),
        # two concurrent pool workers, overlapping, one running past the parent
        _span("arrays.pair_entanglement_profile", 1_000_000_000, 5_000_000_000, "a", "p"),
        _span("arrays.pair_entanglement_profile", 3_000_000_000, 12_000_000_000, "b", "p"),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["arrays.disorder_sweep.s"] == pytest.approx(10.0)
    assert metrics["arrays.disorder_sweep.self_s"] == pytest.approx(1.0)
    assert metrics["arrays.pair_entanglement_profile.calls"] == 2
    assert metrics["arrays.pair_entanglement_profile.self_s"] == pytest.approx(13.0)


def test_traced_pass_writes_the_same_csv_bytes(tmp_path):
    ops = [op for name in ("cavity", "spectra", "spin-chains") for op in workloads.TINY_WORKLOADS[name]]
    plain = workloads.run_pass(ops, 7, tmp_path / "plain")
    tracer = tracing.Tracer(tmp_path / "spill")
    with tracer:
        traced = workloads.run_pass(ops, 7, tmp_path / "traced")
    spans = tracer.collect()
    assert all(not o.error for o in plain + traced)
    for a, b in zip(plain, traced):
        assert a.output.read_bytes() == b.output.read_bytes()
    metrics = tracing.layer_metrics(spans)
    assert metrics["experiments.run_experiment.calls"] == len(ops)
    assert metrics["experiments.csv_bytes"] == sum(o.output.stat().st_size for o in traced)
    # pool workers spilled their spans and each points into this process's tree
    ids = {span.span_id for span in spans}
    worker_spans = [span for span in spans if not span.span_id.startswith(f"{tracer._pid}:")]
    assert worker_spans and all(span.parent_id in ids for span in worker_spans)
    assert len({span.request_id for span in spans}) == len(ops)
