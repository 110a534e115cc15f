"""Gate power: ``compare`` must fail a wrong simulator, not only pass a
right one.

Each mutant is patched in through a name in ``multipool.montecarlo`` and
run at master seeds 1 to 20 on a benchmark configuration: sim-dense-small,
(16, 4) at rho = 0.1 with p_fp = p_fn = 0.02 and nc = 1 over 6552
trials, or sim-sparse-large, (64, 8) at rho = 0.01, noiseless, nc = 0
over 448 trials.  The seeds and the expected failure shares were fixed
before any of these runs was made: each mutant must fail in at least 18
of the 20, and the unpatched simulator in at most 2 on either
configuration.
"""

import dataclasses

import pytest

from multipool import montecarlo
from multipool.analytics import ScenarioParams
from multipool.design import MultipoolParams
from multipool.model import NoiseModel

_SEEDS = range(1, 21)
# Each benchmark configuration's scenario and trial count.
_CONFIGS = {
    "sim-dense-small":
        (ScenarioParams(rho=0.1, q=16, m=4, nc=1, noise=NoiseModel(0.02, 0.02), n=256), 6552),
    "sim-sparse-large": (ScenarioParams(rho=0.01, q=64, m=8, n=4096), 448),
}


def _failures(config: str = "sim-dense-small") -> int:
    """How many of the seeds' comparisons on ``config`` fail."""
    scenario, trials = _CONFIGS[config]
    return sum(
        not montecarlo.compare(montecarlo.ExperimentConfig(
            scenario=scenario, design=MultipoolParams(scenario.q, scenario.m), trials=trials,
            master_seed=seed,
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


def _prevalence_biased(infections, factor=1.02):
    """Infections drawn at rho * ``factor`` against the closed forms' rho."""
    def mutant(rngs, counts, n, rho, span):
        return infections(rngs, counts, n, rho * factor, span)
    return mutant


@pytest.mark.parametrize("name, mutate", [
    ("negative_probabilities", _load_blind),
    ("_run_batch", _decoder_one_past),
    ("_infections", _prevalence_biased),
])
def test_the_gate_fails_a_mutant(monkeypatch, name, mutate):
    monkeypatch.setattr(montecarlo, name, mutate(getattr(montecarlo, name)))
    assert _failures() >= 18


def test_the_sparse_gate_fails_a_prevalence_mutant(monkeypatch):
    # rho * 1.10 moves mean_T by about 13 null standard errors at 448 trials.
    monkeypatch.setattr(montecarlo, "_infections", _prevalence_biased(montecarlo._infections, 1.10))
    assert _failures("sim-sparse-large") >= 18


def test_the_gate_passes_the_unpatched_simulator():
    assert _failures() <= 2


def test_the_sparse_gate_passes_the_unpatched_simulator():
    assert _failures("sim-sparse-large") <= 2
