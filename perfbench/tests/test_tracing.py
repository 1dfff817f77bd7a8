import warnings

import pytest

import tracing


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 2.0, 5.0, 0],
                    ["c", 3.0, 4.0, 1], ["b", 6.0, 7.0, 0]]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracer.calls() == {"a": 1, "b": 2, "c": 1}


def test_absent_targets_warn_and_are_reported():
    tracer = tracing.Tracer()
    with pytest.warns(RuntimeWarning, match="absent"):
        tracer.install(targets=(
            ("x.gone", "repro.no_such_module:f"),
            ("x.renamed", "repro.core.cma:no_such_function"),
            ("x.method", "repro.sim.radio:Radio.no_such_method"),
        ))
    assert len(tracer.absent) == 3
    tracer.uninstall()


def test_wrapping_reaches_every_binding_and_uninstall_restores():
    import repro.core.cma as cma
    import repro.runtime.cma_phases as phases
    from repro.geometry.interpolation import LinearSurfaceInterpolator

    original = cma.plan_move
    method = LinearSurfaceInterpolator.evaluate_grid
    tracer = tracing.Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracer.install(targets=(
            ("core.plan_move", "repro.core.cma:plan_move"),
            ("geometry.evaluate_grid",
             "repro.geometry.interpolation:"
             "LinearSurfaceInterpolator.evaluate_grid"),
        ))
    try:
        assert phases.plan_move is cma.plan_move is not original
        assert LinearSurfaceInterpolator.evaluate_grid is not method
    finally:
        tracer.uninstall()
    assert phases.plan_move is cma.plan_move is original
    assert LinearSurfaceInterpolator.evaluate_grid is method


def test_every_layer_target_exists():
    tracer = tracing.Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracer.install()
    tracer.uninstall()
    assert tracer.absent == []


def test_engine_without_scheduler_is_reported_absent():
    tracer = tracing.Tracer()
    with pytest.warns(RuntimeWarning):
        tracing.attach_phase_spans(object(), tracer)
    assert tracer.absent == ["MobileSimulation.scheduler.middleware"]
