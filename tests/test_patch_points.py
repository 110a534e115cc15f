"""The names the benchmark's tracer wraps, at the places it looks them up.

``bench/tracing.py`` swaps these attributes for timed wrappers through
``owner.__dict__[name]`` and restores them afterwards, so each must be
defined directly on its owner, and ``montecarlo`` must call the model
kernels and the design builder through its own module names.  The
engine's stages are looked up the same way by whatever times, wraps or
swaps one of them.
"""

import inspect

from multipool import analytics, design, gf, model, montecarlo


def test_montecarlo_calls_its_layers_through_module_names():
    assert callable(montecarlo.__dict__["run_experiment"])
    for owner, name in [
        (design, "build_multipool"),
        (analytics, "analytic_report"),
        (model, "pool_loads"),
        (model, "negative_probabilities"),
        (model, "positive_pool_counts"),
    ]:
        assert montecarlo.__dict__[name] is owner.__dict__[name]


def test_the_engine_stages_are_module_functions():
    for name in ("_infections", "_pool_results", "_decode", "_flag_counts", "_missed",
                 "_run_batch"):
        assert inspect.isfunction(montecarlo.__dict__[name]), name


def test_traced_methods_are_defined_on_their_classes():
    assert callable(model.SeedSpec.__dict__["rng"])
    assert callable(gf.Field.__dict__["add"])
    assert callable(gf.Field.__dict__["mul"])
