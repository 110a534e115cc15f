"""Gate power: ``compare`` must fail a wrong simulator, not only pass a
right one.

Each mutant is patched in through a name in ``multipool.montecarlo`` and
run on the sim-dense-small configuration, (16, 4) at rho = 0.1 with
p_fp = p_fn = 0.02 and nc = 1 over 6552 trials, at master seeds 1 to 20.
The seeds and the expected failure shares were fixed before any of
these runs was made: each mutant must fail in at least 18 of the 20, and
the unpatched simulator in at most 2.
"""

import dataclasses

import pytest

from multipool import montecarlo
from multipool.analytics import ScenarioParams
from multipool.design import MultipoolParams
from multipool.model import NoiseModel

_SEEDS = range(1, 21)
_SCENARIO = ScenarioParams(rho=0.1, q=16, m=4, nc=1, noise=NoiseModel(0.02, 0.02), n=256)


def _failures() -> int:
    """How many of the seeds' comparisons fail."""
    return sum(
        not montecarlo.compare(montecarlo.ExperimentConfig(
            scenario=_SCENARIO, design=MultipoolParams(16, 4), trials=6552, master_seed=seed,
        )).passed
        for seed in _SEEDS
    )


def _load_blind(negative_probabilities):
    """The error rate of a pool at load k >= 1 taken as at load 1: p_fn
    dilutes a pool's infections as if it held one."""
    def mutant(loads, noise):
        error = negative_probabilities(loads, noise)
        error[2:] = error[1]
        return error
    return mutant


def _decoder_one_past(run_batch):
    """Each batch decoded at nc + 1 against the closed forms' nc."""
    def mutant(matrix, scenario, *rest):
        return run_batch(matrix, dataclasses.replace(scenario, nc=scenario.nc + 1), *rest)
    return mutant


@pytest.mark.parametrize("name, mutate", [
    ("negative_probabilities", _load_blind),
    ("_run_batch", _decoder_one_past),
])
def test_the_gate_fails_a_mutant(monkeypatch, name, mutate):
    monkeypatch.setattr(montecarlo, name, mutate(getattr(montecarlo, name)))
    assert _failures() >= 18


def test_the_gate_passes_the_unpatched_simulator():
    assert _failures() <= 2
